"""Mutation table: each row injects one deliberate defect and asserts that a
named report check fails, so the check is shown to be able to see it.

Rows run only the suites the defect affects."""

import dataclasses

import pytest

from ymgap import conformal, liealg, report


def _failed(suites):
    return {c.name for name in suites for c in report.run_suite(name).checks if not c.passed}


def _negated_stiffness(monkeypatch):
    stiffness = conformal.SLProblem.stiffness_times
    monkeypatch.setattr(conformal.SLProblem, "stiffness_times",
                        lambda self, f: -stiffness(self, f))


def _scaled_constituent(name):
    def mutate(monkeypatch):
        phi_of = conformal.phi_of

        def scaled(*args, **kwargs):
            field = phi_of(*args, **kwargs)
            return dataclasses.replace(field, **{name: 1.01 * getattr(field, name)})

        monkeypatch.setattr(conformal, "phi_of", scaled)
    return mutate


def _doubled_volumes(monkeypatch):
    cell_volumes = conformal.cell_volumes
    monkeypatch.setattr(conformal, "cell_volumes", lambda n: 2.0 * cell_volumes(n))


def _scaled_cubic_tensor(monkeypatch):
    sd_cubic_tensor = liealg.sd_cubic_tensor
    monkeypatch.setattr(liealg, "sd_cubic_tensor", lambda alg: (1 + 1e-4) * sd_cubic_tensor(alg))


def _negated_comm2form(monkeypatch):
    comm2form = liealg.comm2form
    monkeypatch.setattr(liealg, "comm2form", lambda p, q: -comm2form(p, q))


MUTATIONS = [
    ("stiffness-sign", _negated_stiffness, ["covariance"], {"covariance-20-random"}),
    ("f-plus-norm-x1.01", _scaled_constituent("f_plus_norm"), ["covariance"],
     {"covariance-20-random"}),
    ("weyl-norm-x1.01", _scaled_constituent("weyl_norm"), ["covariance"],
     {"covariance-20-random"}),
    ("cell-volumes-x2", _doubled_volumes, ["eigenvalue", "yamabe-quotient"],
     {"rayleigh-cos-36", "quotient-at-round"}),
    ("cubic-tensor-x1.0001", _scaled_cubic_tensor, ["gamma-constants"],
     {"gamma1-su2", "gamma1-so3", "gamma1-so4-bound"}),
    ("comm2form-sign", _negated_comm2form, ["bracket-sharpness", "bochner"],
     {"cubic-form-bpst", "bracket-term-at-0"}),
]


@pytest.mark.parametrize("mutate, suites, expected",
                         [row[1:] for row in MUTATIONS], ids=[row[0] for row in MUTATIONS])
def test_mutation_is_caught(monkeypatch, mutate, suites, expected):
    assert not _failed(suites)
    mutate(monkeypatch)
    assert expected <= _failed(suites)
