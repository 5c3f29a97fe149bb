"""Per-layer metrics of a traced run, built from the tracer's spans.

Every value is per warm pass. A metric whose function a later change
renames or removes is left out rather than failing the run. A function
the workload does not call reports 0 calls, and 0 for its per-call time.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

LAYERS = ('cli', 'report', 'liealg', 'instanton', 'quad4', 'conformal', 'forms4')


def layer_modules():
    return {layer: importlib.import_module(f'ymgap.{layer}') for layer in LAYERS}


def _count_nodes(counters, arguments, result):
    # radial nodes x sphere points, computed from the argument shapes
    counters['quad4.integrate_r4.nodes'] += (len(arguments['grid'].nodes)
                                             * len(arguments['rule'].weights))


def _count_points(counters, arguments, result):
    counters['instanton.curvature_norm_sq.points'] += math.prod(np.shape(arguments['x'])[:-1])


def _count_converged(counters, arguments, result):
    counters['liealg.gamma.converged'] += bool(result.converged)


OBSERVERS = {
    'quad4.integrate_r4': _count_nodes,
    'instanton.curvature_norm_sq': _count_points,
    'liealg.gamma0_estimate': _count_converged,
    'liealg.gamma1_estimate': _count_converged,
}


class Aggregate:
    """Sums of the tracer's per-pass statistics over the traced passes."""

    def __init__(self):
        self.passes = 0
        self.pass_s = 0.0
        self.stats = {}
        self.counters = {}
        self.checks = 0
        self.checks_failed = 0

    def add(self, pass_s, stats, counters, verdict):
        self.passes += 1
        self.pass_s += pass_s
        for name, values in stats.items():
            old = self.stats.get(name, (0, 0.0, 0.0))
            self.stats[name] = tuple(a + b for a, b in zip(old, values))
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.checks += verdict.checks
        self.checks_failed += verdict.checks_failed

    def calls(self, fn):
        return self.stats[fn][0]

    def inclusive(self, fn):
        return self.stats[fn][1]

    def counter(self, name):
        return self.counters.get(name, 0)


def _per(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


# (metric, unit, functions it needs, value from an Aggregate). Each group
# names the end-to-end figure it should explain.
FUNCTION_METRICS = (
    # pass_s on constants and report; flat on pointwise
    ('liealg.comm2form.calls', 'count', ('liealg.comm2form',),
     lambda a: a.calls('liealg.comm2form') / a.passes),
    ('liealg.comm2form.us_per_call', 'us', ('liealg.comm2form',),
     lambda a: _per(a.inclusive('liealg.comm2form'), a.calls('liealg.comm2form'), 1e6)),
    ('liealg.gamma0_estimate.s', 's', ('liealg.gamma0_estimate',),
     lambda a: a.inclusive('liealg.gamma0_estimate') / a.passes),
    ('liealg.gamma0_estimate.calls', 'count', ('liealg.gamma0_estimate',),
     lambda a: a.calls('liealg.gamma0_estimate') / a.passes),
    ('liealg.gamma1_estimate.s', 's', ('liealg.gamma1_estimate',),
     lambda a: a.inclusive('liealg.gamma1_estimate') / a.passes),
    ('liealg.gamma1_estimate.calls', 'count', ('liealg.gamma1_estimate',),
     lambda a: a.calls('liealg.gamma1_estimate') / a.passes),
    ('liealg.gamma.converged_share', 'ratio',
     ('liealg.gamma0_estimate', 'liealg.gamma1_estimate'),
     lambda a: _per(a.counter('liealg.gamma.converged'),
                    a.calls('liealg.gamma0_estimate') + a.calls('liealg.gamma1_estimate'))),
    # pass_s on pointwise and report; flat on constants
    ('instanton.covariant_derivative_of.calls', 'count', ('instanton.covariant_derivative_of',),
     lambda a: a.calls('instanton.covariant_derivative_of') / a.passes),
    ('instanton.covariant_derivative_of.us_per_call', 'us',
     ('instanton.covariant_derivative_of',),
     lambda a: _per(a.inclusive('instanton.covariant_derivative_of'),
                    a.calls('instanton.covariant_derivative_of'), 1e6)),
    ('instanton.kato_residual_at.calls', 'count', ('instanton.kato_residual_at',),
     lambda a: a.calls('instanton.kato_residual_at') / a.passes),
    # pass_s on report; flat on pointwise and constants
    ('quad4.integrate_r4.s', 's', ('quad4.integrate_r4',),
     lambda a: a.inclusive('quad4.integrate_r4') / a.passes),
    ('quad4.integrate_r4.nodes', 'nodes-computed', ('quad4.integrate_r4',),
     lambda a: a.counter('quad4.integrate_r4.nodes') / a.passes),
    ('quad4.integrate_r4.ns_per_node', 'ns', ('quad4.integrate_r4',),
     lambda a: _per(a.inclusive('quad4.integrate_r4'),
                    a.counter('quad4.integrate_r4.nodes'), 1e9)),
    ('quad4.ym_energy.calls', 'count', ('quad4.ym_energy',),
     lambda a: a.calls('quad4.ym_energy') / a.passes),
    ('instanton.curvature_norm_sq.points', 'points-computed', ('instanton.curvature_norm_sq',),
     lambda a: a.counter('instanton.curvature_norm_sq.points') / a.passes),
    ('instanton.curvature_norm_sq.ns_per_point', 'ns', ('instanton.curvature_norm_sq',),
     lambda a: _per(a.inclusive('instanton.curvature_norm_sq'),
                    a.counter('instanton.curvature_norm_sq.points'), 1e9)),
    # pass_s on pointwise; flat on constants
    ('conformal.lambda1.ms_per_call', 'ms', ('conformal.lambda1',),
     lambda a: _per(a.inclusive('conformal.lambda1'), a.calls('conformal.lambda1'), 1e3)),
    ('conformal.covariance_check.ms_per_call', 'ms', ('conformal.covariance_check',),
     lambda a: _per(a.inclusive('conformal.covariance_check'),
                    a.calls('conformal.covariance_check'), 1e3)),
    ('conformal.yamabe_quotient.ms_per_call', 'ms', ('conformal.yamabe_quotient',),
     lambda a: _per(a.inclusive('conformal.yamabe_quotient'),
                    a.calls('conformal.yamabe_quotient'), 1e3)),
    ('forms4.weyl_quad.calls', 'count', ('forms4.weyl_quad',),
     lambda a: a.calls('forms4.weyl_quad') / a.passes),
    ('forms4.random_weyl.us_per_call', 'us', ('forms4.random_weyl',),
     lambda a: _per(a.inclusive('forms4.random_weyl'), a.calls('forms4.random_weyl'), 1e6)),
    ('report.run_suite.calls', 'count', ('report.run_suite',),
     lambda a: a.calls('report.run_suite') / a.passes),
    # passed_share on every workload
    ('report.checks', 'count', (), lambda a: a.checks / a.passes),
    ('report.checks_failed', 'count', (), lambda a: a.checks_failed / a.passes),
)

LAYER_METRICS = tuple((f'{layer}.{kind}', unit)
                      for layer in LAYERS
                      for kind, unit in (('self_s', 's'), ('calls', 'count'), ('share', 'ratio')))

METRIC_UNITS = dict(LAYER_METRICS)
METRIC_UNITS.update((name, unit) for name, unit, _, _ in FUNCTION_METRICS)
METRIC_UNITS['trace.overhead'] = 'ratio'


def layer_metrics(agg):
    """``{metric: value}`` per traced pass, and the functions not called."""
    out = {}
    for layer in LAYERS:
        rows = [v for name, v in agg.stats.items() if name.split('.', 1)[0] == layer]
        self_s = sum(v[2] for v in rows) / agg.passes
        out[f'{layer}.self_s'] = self_s
        out[f'{layer}.calls'] = sum(v[0] for v in rows) / agg.passes
        out[f'{layer}.share'] = self_s / (agg.pass_s / agg.passes)
    not_called = sorted({fn for _, _, fns, _ in FUNCTION_METRICS for fn in fns
                         if fn in agg.stats and agg.calls(fn) == 0})
    for name, _, fns, value in FUNCTION_METRICS:
        if all(fn in agg.stats for fn in fns):
            out[name] = value(agg)
    return out, not_called
