"""Command-line interface.

Subcommands: run, norms, fit, report, selftest.  Exit codes: 0 success,
1 validation error, 2 runtime error, 3 self-test failure.  The
environment variable PSTOKESLAB_OUT sets the default output root.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_TESTFAIL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pstokes-lab",
        description=(
            "Numerical laboratory for the stochastic symmetric p-Stokes "
            "system: sample-path simulation and temporal-regularity reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment from a config file")
    p_run.add_argument("--config", required=True, help="flat key=value config file")
    p_run.add_argument("--out", default=None, help="override the run directory")

    p_norms = sub.add_parser("norms", help="seminorm reports for a finished run")
    p_norms.add_argument("--dir", required=True)
    p_norms.add_argument(
        "--alpha", default="0.5", help="comma list in (0, 1), e.g. 0.25,0.5"
    )
    p_norms.add_argument(
        "--orlicz", default="2", help="comma list: q (power), phi2, nq:q; finite q >= 1"
    )

    p_fit = sub.add_parser("fit", help="fit temporal exponents for a finished run")
    p_fit.add_argument("--dir", required=True)
    p_fit.add_argument("--alpha", default="0.5")
    p_fit.add_argument("--orlicz", default="2")

    p_rep = sub.add_parser("report", help="print a digest of a finished run")
    p_rep.add_argument("--dir", required=True)

    sub.add_parser("selftest", help="run the invariant battery")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "selftest":
        from .selftest import format_table, run_battery

        checks = run_battery()
        print(format_table(checks))
        return EXIT_OK if all(c.passed for c in checks) else EXIT_TESTFAIL

    if args.command == "run":
        from .config import ConfigError, load_config
        from .runner import run_experiment

        try:
            cfg = load_config(args.config)
            cfg.validate()
        except (ConfigError, OSError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            manifest = run_experiment(cfg, run_dir=args.out)
        except Exception as exc:  # noqa: BLE001 - report and signal runtime failure
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"run complete: status = {manifest.status}")
        if manifest.status != "ok":
            return EXIT_RUNTIME
        return EXIT_OK

    if args.command in ("norms", "fit"):
        from .analysis import failed_path_indices, fit_command, norms_command, parse_orlicz
        from .config import RunManifest
        from .seminorms import check_alpha

        try:
            alphas = [check_alpha(float(a)) for a in args.alpha.split(",") if a.strip()]
            specs = [parse_orlicz(tok) for tok in args.orlicz.split(",") if tok.strip()]
            if not alphas or not specs:
                raise ValueError("need at least one alpha and one Orlicz scale")
        except ValueError as exc:
            print(f"argument error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            if args.command == "norms":
                rows = norms_command(args.dir, alphas, specs)
                for r in rows:
                    print(
                        f"{r.quantity} alpha={r.alpha:g} {r.kind}: "
                        f"median sup {r.median_sup:.6g}, median slope {r.median_slope:.4f} "
                        f"({r.n_paths} paths)"
                    )
            else:
                summaries = fit_command(args.dir, alphas, specs)
                for (quantity, kind, alpha), fit in summaries.items():
                    print(
                        f"{quantity} {kind} alpha={alpha:g}: slope {fit.slope:.4f} "
                        f"+/- {fit.half_width:.4f} on [{fit.h_min:.4g}, {fit.h_max:.4g}]"
                    )
            failed = failed_path_indices(args.dir, RunManifest.read(args.dir))
            print(
                f"failed paths excluded from the medians: {len(failed)}"
                + (f" ({', '.join(map(str, failed))})" if failed else "")
            )
        except (OSError, ValueError) as exc:  # missing or malformed run files
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    if args.command == "report":
        from .analysis import report_command

        try:
            print(report_command(args.dir))
        except (OSError, ValueError) as exc:  # missing or malformed run files
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
