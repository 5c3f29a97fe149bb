"""The census, the converse of the mutation table: every number a verdict
rests on is watched by some check.

Each module-level float constant and float table of the package is scaled
by 1 + 1e-3 and by 1 - 1e-3 in turn, on one seed, and some check of the
suites that read it must then fail. A suite that raises under the defect
fails the test too: a defective constant is a failed check (exit 1), not a
configuration error (exit 2). Constants the census does not perturb are
exempt, with the reason, in ``EXEMPT``."""

import numpy as np
import pytest

from ymgap import cli, conformal, forms4, instanton, liealg, quad4, report

MODULES = (cli, conformal, forms4, instanton, liealg, quad4, report)
FACTORS = (1.0 + 1e-3, 1.0 - 1e-3)


def _float_constants():
    """{'module.NAME': (module, NAME)} of every module-level float and float array."""
    out = {}
    for module in MODULES:
        for name, value in vars(module).items():
            if isinstance(value, (float, np.floating)) or (
                    isinstance(value, np.ndarray) and value.dtype.kind == 'f'):
                out[f"{module.__name__.split('.')[-1]}.{name}"] = module, name
    return out


CONSTANTS = _float_constants()

# the suites that read each constant at call time
READERS = {
    'conformal.ROUND_SCALAR_CURVATURE': ('yamabe-quotient', 'gap'),
    'conformal.SQRT6': ('eigenvalue', 'covariance'),
    'conformal.TWO_PI_SQ': ('yamabe-quotient',),
    'conformal.YAMABE_S4': ('yamabe-quotient', 'gap', 'thresholds'),
    'forms4.STAR': ('kato', 'bochner', 'bracket-sharpness', 'circ-basis', 'gamma-constants',
                    'chern-weil', 'gap'),
    'forms4.WEYL_BOUND': ('weyl-bound',),
    'instanton._CURV_COEFF': ('kato', 'bochner', 'bracket-sharpness', 'chern-weil', 'gap'),
    'instanton._THETA_COEFF': ('kato', 'bochner'),
    'liealg.GAMMA0_SO3': ('gamma-constants',),
    'liealg.GAMMA0_SU2': ('bracket-sharpness', 'gamma-constants'),
    'liealg.GAMMA1_MAX': ('gamma-constants', 'gap'),
    'liealg.GAMMA1_SO3': ('gamma-constants', 'thresholds'),
    'liealg.GAMMA1_SU2': ('bracket-sharpness', 'gamma-constants', 'eigenvalue', 'covariance',
                          'gap', 'thresholds'),
    'liealg.SO3': ('gamma-constants',),
    'liealg.SO4': ('bochner', 'bracket-sharpness', 'circ-basis', 'gamma-constants'),
    'liealg.SU2': ('kato', 'bochner', 'bracket-sharpness', 'gamma-constants'),
    'quad4.EPI2_16': ('energy', 'chern-weil', 'flow-check'),
    'quad4._GL_NODES': ('energy', 'chern-weil', 'gap', 'flow-check'),
    'quad4._GL_WEIGHTS': ('energy', 'chern-weil', 'gap', 'flow-check'),
}

# perturbations no check sees yet, each with the ROADMAP item that closes it;
# that item deletes its entry here
BLIND_SPOTS = {
    'conformal.SQRT6': "item 10: every Phi in the report has |W+| = 0 but the covariance "
                       "suite's, and both of its routes read the same 2 sqrt(6)",
    'liealg.GAMMA1_MAX x1.001': "item 4: gamma1-so4-bound is one-sided, and a larger bound "
                                "stays above the so(4) search's value",
}

# perturbations the census does not require a check to see, with the reason:
# a bare name exempts both factors, 'name x<factor>' one of them
EXEMPT = {
    'liealg._TOL': "a solver tolerance: the gamma searches' stopping rule, 1e-7 against "
                   "the checks' 1e-6 and 1e-5",
    'liealg._TIE': "a solver tolerance: it picks the reported restart among ties, "
                   "not a value",
    'quad4._LOG_TOL': "a solver tolerance: the zonal order's resolution target, 1e-16 "
                      "against the energy checks' 1e-8 and 1e-6",
    'liealg.SU2_BASIS': "read only at import, to tabulate liealg.SU2",
    'liealg.SO3_BASIS': "read only at import, to tabulate liealg.SO3",
    'liealg.SO4_BASIS': "read only at import, to tabulate liealg.SO4",
    'liealg.SU2_I': "read only at import, to build SU2_BASIS",
    'liealg.SU2_J': "read only at import, to build SU2_BASIS",
    'liealg.SU2_K': "read only at import, to build SU2_BASIS",
    'conformal.ROUND_VOLUME': "read only at import, to compute YAMABE_S4",
    **BLIND_SPOTS,
}


def _case_id(key, factor):
    return f"{key} x{factor:g}"


def _failed(suites):
    return {c.name for name in suites for c in report.run_suite(name).checks if not c.passed}


def _scale(monkeypatch, key, factor):
    module, name = CONSTANTS[key]
    monkeypatch.setattr(module, name, factor * getattr(module, name))


@pytest.mark.parametrize("key, factor", [
    pytest.param(key, factor, id=_case_id(key, factor))
    for key in CONSTANTS for factor in FACTORS
    if key not in EXEMPT and _case_id(key, factor) not in EXEMPT])
def test_perturbed_constant_fails_a_check(monkeypatch, key, factor):
    _scale(monkeypatch, key, factor)
    assert _failed(READERS[key])


def _outputs(suites):
    """{suite: (its checks, its sections)} on the default configuration."""
    return {r.suite: (r.to_dict(), r.sections) for r in map(report.run_suite, suites)}


def test_readers_list_every_suite_a_constant_moves(monkeypatch):
    """READERS is measured: every suite whose checks or sections change
    when a constant is scaled by 1 + 1e-3 is listed among its readers. A
    listed suite the scale leaves unchanged stays allowed: eigenvalue
    reads SQRT6, times |W+| = 0."""
    clean = _outputs(report.SUITE_IDS)
    unlisted = {}
    for key, readers in READERS.items():
        monkeypatch.undo()
        _scale(monkeypatch, key, FACTORS[0])
        others = [name for name in report.SUITE_IDS if name not in readers]
        moved = [name for name, out in _outputs(others).items() if out != clean[name]]
        if moved:
            unlisted[key] = moved
    assert not unlisted


@pytest.mark.parametrize("case", sorted(BLIND_SPOTS))
def test_blind_spots_are_still_blind(monkeypatch, case):
    """A blind spot that some check comes to see must leave BLIND_SPOTS."""
    key, _, factor = case.partition(' x')
    for f in ([float(factor)] if factor else FACTORS):
        monkeypatch.undo()
        _scale(monkeypatch, key, f)
        assert not _failed(READERS[key]), _case_id(key, f)


def test_census_tables_name_the_package_constants():
    exempt = {case.partition(' x')[0] for case in EXEMPT}
    assert set(CONSTANTS) <= set(READERS) | exempt
    assert set(READERS) | exempt <= set(CONSTANTS)
    assert {_case_id(k, f) for k in CONSTANTS for f in FACTORS} >= {
        case for case in EXEMPT if ' x' in case}


def test_module_level_arrays_are_read_only():
    """No call can edit a table in place: every module-level ndarray of the
    package is read-only, so a perturbation needs ``monkeypatch``. Every float
    table the census perturbs is also C-contiguous: a strided one, such as an
    einsum's output, makes each contraction that reads it slower."""
    writable = [f"{module.__name__}.{name}" for module in MODULES
                for name, value in vars(module).items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert not writable
    strided = [key for key, (module, name) in CONSTANTS.items()
               if isinstance(getattr(module, name), np.ndarray)
               and not getattr(module, name).flags.c_contiguous]
    assert not strided


# the defects of the census that reached the gap inequality's range check and
# exited 2; they must exit 1 from the command line

def test_out_of_range_su2_constant_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(liealg, "GAMMA1_SU2", 1.001 * liealg.GAMMA1_SU2)
    assert cli.main(['gap']) == 1
    assert "BAD verdict-equality" in capsys.readouterr().out


def test_lowered_gamma1_bound_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(liealg, "GAMMA1_MAX", 0.999 * liealg.GAMMA1_MAX)
    assert cli.main(['constants']) == 1
    assert cli.main(['gap']) in (0, 1)
    assert capsys.readouterr().err == ""
