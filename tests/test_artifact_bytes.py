"""Golden artifacts: the sha256 of the CSVs a set of tiny scenarios writes.

One scenario per stepper and per writer, each a few dozen steps on a
dimension of at most 25, so the set runs in about a second. A change
that moves any stored number by one bit, reorders a column or edits a
header line fails here. A change meant to move an artifact updates its
hash and names it in CHANGES.md.

The hashes pin this build's floating point: another numpy, BLAS or CPU
may round a product differently and fail every entry at once.
"""

import hashlib
from dataclasses import replace

import pytest

from spinlab.dynamics import EvolutionSpec, evolve
from spinlab.feedback import FeedbackScheme
from spinlab.harness import (
    SimConfig,
    run_ensemble,
    run_scenario,
    write_frontier_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from spinlab.metrics import min_squeezing_sweep
from spinlab.optimal_states import optimal_curve
from spinlab.stochastic import trajectory_run

_TINY = dict(delta_v=1e-3, v_max=0.05, stride=5)

RUNS = {
    "averaged-two": SimConfig(mode="two", twice_j=4, scheme="simple", **_TINY),
    "averaged-none": SimConfig(mode="two", twice_j=4, scheme="none", **_TINY),
    "euler-two-optimal": SimConfig(mode="two", twice_j=2, scheme="optimal", omega=7.3, **_TINY),
    "euler-single": SimConfig(mode="single", twice_j=4, scheme="analytic", **_TINY),
    "countertwist-two": SimConfig(mode="two", twice_j=4, scheme="countertwist", **_TINY),
    "countertwist-single": SimConfig(mode="single", twice_j=4, scheme="countertwist", **_TINY),
    "conditioned": SimConfig(
        mode="two", twice_j=2, scheme="simple-conditioned", conditioned=True, seed=5, **_TINY
    ),
}


class _Kick(FeedbackScheme):
    """A gain far beyond what either integrator can step."""

    def __init__(self):
        super().__init__("simple", clamp=1e12)

    def gain(self, rho, frame, v):
        return 1e6, False


def _write_artifacts(out):
    for name, config in RUNS.items():
        run_scenario(replace(config, out=str(out / f"{name}.csv")))
    ens = SimConfig(
        mode="single", twice_j=2, scheme="simple-conditioned", conditioned=True,
        ensemble=3, seed=3, out=str(out / "ens.csv"), **_TINY,
    )
    run_ensemble(ens)
    for name, config in (
        ("aborted-averaged", SimConfig(mode="two", twice_j=2, **_TINY)),
        ("aborted-conditioned", SimConfig(mode="single", twice_j=2, conditioned=True, **_TINY)),
    ):
        spec = EvolutionSpec(frame=config.frame(), delta_v=config.delta_v, v_max=config.v_max)
        if config.conditioned:
            record = trajectory_run(config.initial_state(), spec, _Kick(), seed=config.seed)
        else:
            record = evolve(config.initial_state(), spec, _Kick())
        assert not record.ok
        write_trajectory_csv(record, config, out / f"{name}.csv")
    points = min_squeezing_sweep("two", (1, 2), "simple", v_max=0.05)
    points += min_squeezing_sweep("single", (2,), "optimal-states")
    write_sweep_csv(points, out / "sweep.csv")
    write_frontier_csv(optimal_curve("two", 2, n_mu=20), out / "frontier.csv")


def artifact_hashes(out) -> dict:
    _write_artifacts(out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


EXPECTED = {
    "aborted-averaged.csv": "b1666033630851d4e87b7dc7d075542cfbf862fde7c7211dd3d4ff64ea1a8a3f",
    "aborted-conditioned.csv": "56761c88212b1fea372fe92bae1b77f1307633915852525a6f52e0ca40a03d39",
    "averaged-none.csv": "37d93ee642481e7b037d46bb78ea2608fd4cf44b5b324ba480dab886ae9b5b9b",
    "averaged-two.csv": "a0575b41c5616351479716f332bfe69ceb9aae87216a3012d297f3d0f0893ed8",
    "conditioned.csv": "967cfcb3a6d4680848a0e59335775a53882fcf4928bc1538e76b2e45c280c122",
    "countertwist-single.csv": "93244e453f4cca04a0c0a8397b0c77385c0c6b71b3eb4ae41e234a8fe3f66246",
    "countertwist-two.csv": "fa96efc20c002516d2e1315a7a18d4947dee2c5e80b0b2fbb5d14fb2fa8a2fc3",
    "ens_mean.csv": "6ba355924568b07979974282837cd7934684cbf2305118440d0d74d671149bc8",
    "ens_t0.csv": "45bfa214b12aa3db2c7ff64520ccd301d43280cd398669da0170b0f30dd6c653",
    "ens_t1.csv": "5995037818f26a93d972f498cdffcf03febb0aa2de7e05ae800068d441ac28d4",
    "ens_t2.csv": "f3668fba6473509296410ac4d844e677f0b17e473884cee5ced36d82d5f0151f",
    "euler-single.csv": "601f4a2abad4e1bd664dec88b0a2a8e55959067c534edc397a04075563d8d439",
    "euler-two-optimal.csv": "e3e7c964ad9d3a489e5c5336fd4470409769cbf9494bfec3f77c840467a417a6",
    "frontier.csv": "7123e942a059be067e4a4b9f804637d8782ad1c975f392e10ef00df64e2b26a1",
    "sweep.csv": "45a61284398b7ac7d421768832e18a059503bf572f141e557b81fb734de41ed1",
}


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return artifact_hashes(tmp_path_factory.mktemp("golden"))


def test_artifact_set_is_complete(hashes):
    assert sorted(hashes) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_artifact_bytes_are_pinned(hashes, name):
    assert hashes[name] == EXPECTED[name]
