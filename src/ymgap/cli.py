"""Command-line entry point.

One subcommand per verification area; every invocation emits a single
structured report document (json, csv, or text) and exits 0 when all
checks pass, 1 on a check failure, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog='ymgap',
        description='verification suites for the sharp energy gap of '
                    'Yang-Mills connections on the four-sphere')
    parser.add_argument('command', choices=_COMMAND_SUITES, help='the suites to run')
    parser.add_argument('--lambda', default=1.0, dest='scale', type=float, help='instanton scale')
    parser.add_argument('--center', default=(0.0, 0.0, 0.0, 0.0), type=_parse_center,
                        help='instanton center x1,x2,x3,x4; a negative first value needs the '
                             '--center=-1,0,0,0 form')
    parser.add_argument('--seed', default=0, type=int)
    parser.add_argument('--format', default='text', choices=('json', 'csv', 'text'))
    parser.add_argument('--out', help='write the report to a file')
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = report.GapConfig(args.scale, args.center, args.seed)
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
