import numpy as np
import pytest

from spinlab.algebra import Moments, coherent_spin_state, two_mode_coherent_state


def random_density(dim: int, seed: int = 0) -> np.ndarray:
    """Full-rank random state: positive, unit trace."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def dissipator(r, rho):
    """D[r] rho = r rho r^dag - (r^dag r rho + rho r^dag r)/2: the
    Lindblad dissipator, the oracle for the rates built from it."""
    rd = r.conj().T
    rdr = rd @ r
    return r @ rho @ rd - 0.5 * (rdr @ rho + rho @ rdr)


def random_pure(dim: int, rng) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def css_rho(mode: str, twice_j: int) -> np.ndarray:
    vec = two_mode_coherent_state(twice_j) if mode == "two" else coherent_spin_state(twice_j)
    return np.outer(vec, vec.conj())


class RecordedMoments(Moments):
    """A full moment read that keeps every operator it is asked for."""

    __slots__ = ("ops",)

    def __init__(self, rho):
        super().__init__(rho)
        self.ops = []

    def __call__(self, op):
        self.ops.append(op)
        return super().__call__(op)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# One line per acceptance criterion, appended by tests/test_acceptance.py
# before it asserts, so the block below lists every criterion even when
# one of them fails.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
