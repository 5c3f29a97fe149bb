"""Command-line entry point.

One subcommand per verification area; every invocation emits a single
structured report document (json, csv, or text) and exits 0 when all
checks pass, 1 on a check failure, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import report

_COMMAND_SUITES = {
    'constants': ('gamma-constants',),
    'energy': ('energy',),
    'kato': ('kato',),
    'bochner': ('bochner',),
    'eigen': ('eigenvalue',),
    'covariance': ('covariance',),
    'yamabe': ('yamabe-quotient',),
    'gap': ('gap',),
    'thresholds': ('thresholds',),
    'flow-check': ('flow-check',),
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

    flag('--group', 'su2', metavar='{su2,so3}', help='structure group of the thresholds')
    flag('--lambda', 1.0, dest='scale', type=float, help='instanton scale')
    flag('--center', (0.0, 0.0, 0.0, 0.0), type=_parse_center,
         help='instanton center x1,x2,x3,x4; a negative first value needs the '
              '--center=-1,0,0,0 form')
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
    subs = {name: sub.add_parser(name, parents=[common]) for name in _COMMAND_SUITES}
    subs['thresholds'].add_argument('--kappa', type=float, default=1.0,
                                    help='|kappa| of the bundle')
    subs['flow-check'].add_argument('--energy', type=float, default=None,
                                    help='energy to test; defaults to the configured '
                                         'instanton energy')
    return parser


def _config_from(args):
    """Fields whose flag this subcommand lacks (--kappa, --energy) keep their defaults."""
    return report.GapConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(report.GapConfig)
                               if hasattr(args, f.name)})


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        suites = [report.run_suite(name, cfg) for name in _COMMAND_SUITES[args.command]]
        text = report.render(report.report_document(cfg, suites, args.command), args.format)
        if args.out:
            with open(args.out, 'w') as fh:
                fh.write(text)
    except (report.ConfigError, OSError) as exc:     # OSError: an unwritable output path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0 if all(s.passed for s in suites) else 1


if __name__ == '__main__':
    sys.exit(main())
