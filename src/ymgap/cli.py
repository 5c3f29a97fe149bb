"""Command-line entry point.

One subcommand per verification area; every invocation emits a single
structured report document (json, csv, or text) and exits 0 when all
checks pass, 1 on a check failure, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import conformal, quad4, report

_COMMAND_SUITES = {
    'constants': ('gamma-constants',),
    'energy': ('energy',),
    'kato': ('kato',),
    'bochner': ('bochner',),
    'eigen': ('eigenvalue',),
    'covariance': ('covariance',),
    'yamabe': ('yamabe-quotient',),
    'gap': ('gap',),
    'all': report.SUITE_IDS,
}


def _parse_center(text):
    parts = [float(p) for p in text.split(',')]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("center needs four comma-separated values")
    return tuple(parts)


def _common_flags(suppress):
    """Parent parser with the flags every subcommand shares.

    The top-level copy carries the defaults; the subcommand copy suppresses
    them, so a flag given before the subcommand is not overwritten by a
    default when the subcommand is parsed.
    """
    common = argparse.ArgumentParser(add_help=False)

    def flag(name, default, **kwargs):
        common.add_argument(name, default=argparse.SUPPRESS if suppress else default, **kwargs)

    flag('--group', 'su2', choices=('su2', 'so3'))
    flag('--lambda', 1.0, dest='scale', type=float, help='instanton scale')
    flag('--center', (0.0, 0.0, 0.0, 0.0), type=_parse_center,
         help='instanton center x1,x2,x3,x4')
    flag('--grid-panels', 24, type=int)
    flag('--rmax', 1000.0, type=float)
    flag('--seed', 0, type=int)
    flag('--tol', 1e-6, type=float)
    flag('--format', 'text', choices=('json', 'csv', 'text'))
    flag('--out', None, help='write the report to a file')
    return common


def build_parser():
    parser = argparse.ArgumentParser(
        prog='ymgap',
        description='verification suites for the sharp energy gap of '
                    'Yang-Mills connections on the four-sphere',
        parents=[_common_flags(suppress=False)])
    common = _common_flags(suppress=True)
    sub = parser.add_subparsers(dest='command', required=True)
    for name in ('constants', 'bochner', 'eigen', 'covariance', 'yamabe', 'gap', 'all'):
        sub.add_parser(name, parents=[common])
    energy = sub.add_parser('energy', parents=[common])
    energy.add_argument('--convergence-table', default=None, metavar='PATH',
                        help='also write an energy-vs-panels CSV table')
    kato = sub.add_parser('kato', parents=[common])
    kato.add_argument('--samples-csv', default=None, metavar='PATH',
                      help='also dump per-point samples as CSV')
    thr = sub.add_parser('thresholds', parents=[common])
    thr.add_argument('--kappa', type=float, default=1.0, help='|kappa| of the bundle')
    flow = sub.add_parser('flow-check', parents=[common])
    flow.add_argument('--energy', type=float, default=None,
                      help='energy to test; defaults to the configured instanton energy')
    return parser


def _config_from(args):
    return report.GapConfig(group=args.group, scale=args.scale, center=args.center,
                            panels=args.grid_panels, rmax=args.rmax,
                            seed=args.seed, tol=args.tol)


def _constants_extras(cfg):
    from . import liealg
    out = {}
    for name, alg in (('su2', liealg.AlgebraSpec.su2_real()),
                      ('so3', liealg.AlgebraSpec.so3_block())):
        g0 = liealg.gamma0_estimate(alg, restarts=16, seed=cfg.seed)
        g1 = liealg.gamma1_estimate(alg, restarts=16, seed=cfg.seed)
        out[name] = {'gamma0': g0.value, 'gamma0_grad_norm': g0.grad_norm,
                     'gamma0_converged': g0.converged,
                     'gamma1': g1.value, 'gamma1_grad_norm': g1.grad_norm,
                     'gamma1_converged': g1.converged}
    return out


def _thresholds_extras(cfg, kappa_abs):
    gamma1, _ = report.gamma1_for(cfg)
    thr = report.corollary_thresholds(cfg.group, kappa_abs, cfg.yamabe, gamma1)
    checks = [report._check(
        "general-vs-weak",
        abs(thr.general - thr.weak_universal) if cfg.group == 'su2' else 0.0,
        1e-9)]
    if thr.specialized is not None:
        expected = 16.0 * np.pi ** 2 * kappa_abs + (32.0 if cfg.group == 'su2' else 64.0) * np.pi ** 2
        checks.append(report._check("specialized-value", abs(thr.specialized - expected), 1e-9))
    suite = report.SuiteResult('thresholds', checks, all(c.passed for c in checks))
    extras = {'thresholds': {'general': thr.general, 'specialized': thr.specialized,
                             'weak_universal': thr.weak_universal, 'kappa_abs': kappa_abs}}
    return [suite], extras


def _flow_extras(cfg, energy):
    if energy is None:
        energy = quad4.ym_energy(cfg.instanton_params(), cfg.grid())
        source = 'computed'
    else:
        source = 'configured'
    admissible = report.flow_admissible(energy)
    consistent = admissible == (energy < quad4.EPI2_16 * (1.0 - 1e-9))
    checks = [report.Check("predicate-consistent", bool(consistent), 0.0, 0.0)]
    suite = report.SuiteResult('flow-check', checks, all(c.passed for c in checks))
    extras = {'flow': {'energy': energy, 'energy_source': source,
                       'threshold': quad4.EPI2_16, 'admissible': admissible,
                       'note': 'admissible energies flow globally and converge; '
                               'on the round four-sphere the limit is flat '
                               '(dynamics reported, not simulated)'}}
    return [suite], extras


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == 'thresholds':
            suites, extras = _thresholds_extras(cfg, args.kappa)
        elif args.command == 'flow-check':
            suites, extras = _flow_extras(cfg, args.energy)
        else:
            suites = [report.run_suite(name, cfg) for name in _COMMAND_SUITES[args.command]]
            extras = None
            if args.command == 'gap':
                extras = {'gap_report': report.gap_report(cfg).to_dict()}
            elif args.command == 'constants':
                extras = {'constants': _constants_extras(cfg)}
            elif args.command == 'energy' and args.convergence_table:
                rows = quad4.energy_convergence_table(
                    cfg.instanton_params(), [8, 12, 16, 24, args.grid_panels],
                    rmax=cfg.rmax)
                quad4.write_table_csv(args.convergence_table, rows)
            elif args.command == 'kato' and args.samples_csv:
                from . import instanton
                rng = np.random.default_rng(cfg.seed)
                pts = rng.standard_normal((64, 4))
                instanton.dump_samples_csv(args.samples_csv, cfg.instanton_params(), pts)
        doc = report.report_document(cfg, suites, extras, command=args.command)
        text = report.render(doc, args.format)
    except report.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, 'w') as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(s.passed for s in suites) else 1


if __name__ == '__main__':
    sys.exit(main())
