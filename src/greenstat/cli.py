"""Command-line front end.

Subcommands: ``sample``, ``stat``, ``quantile-table``, ``test-uni``,
``test-biv``, ``ci-alpha``, ``power``, ``analyze``.  Run
``greenstat <subcommand> --help`` for the flags of each.

One argparse parser reads every argv.  A process builds it at its first
parse and keeps it; it is built again only when a statistic registered
later changes the names that ``--kind`` and ``--stat`` accept.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import harness, testing
from .exceptions import GreenstatError, ParameterError
from .mc import NullSpec, QuantileCache, gaussianity_statistics, statistic_function, statistic_kinds, statistic_ndim
from .rng import RngStream
from .sampling import (
    StableSpec,
    SubGaussianSpec,
    sample_bivariate_gaussian,
    sample_chi2_one,
    sample_positive_stable,
    sample_sas,
    sample_sub_gaussian,
)
from .statistics import beta_ratio


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _comma_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _comma_names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip() != ""]


def _write_sample(arr: np.ndarray, out: str) -> None:
    with open(out, "w") as fh:
        if arr.ndim == 1:
            for v in arr:
                fh.write(f"{float(v)!r}\n")
        else:
            for row in arr:
                fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")


def _read(path: str, ndim: int, message: str) -> np.ndarray:
    data = harness.ingest_csv(path)
    if data.ndim != ndim:
        raise ParameterError(message)
    return data


def _cov_from_args(args) -> np.ndarray:
    c12 = args.rho * np.sqrt(args.var1 * args.var2)
    return np.array([[args.var1, c12], [c12, args.var2]])


def _cmd_sample(args) -> int:
    rng = RngStream(args.seed)
    if args.dist == "sas":
        arr = sample_sas(StableSpec(args.alpha, args.sigma), args.n, rng)
    elif args.dist == "pos-stable":
        arr = sample_positive_stable(args.alpha, args.n, rng)
    elif args.dist == "gauss2":
        arr = sample_bivariate_gaussian(_cov_from_args(args), args.n, rng)
    elif args.dist == "subgauss":
        arr = sample_sub_gaussian(SubGaussianSpec(args.alpha, _cov_from_args(args)), args.n, rng)
    else:  # chi2-1
        arr = sample_chi2_one(args.n, rng)
    _write_sample(arr, args.out)
    print(f"wrote {args.n} observations to {args.out}")
    return 0


def _cmd_stat(args) -> int:
    if args.kind == "beta":
        if args.cov is not None:
            if len(args.cov) != 3:
                raise ParameterError(f"--cov needs exactly three values R11,R12,R22, got {len(args.cov)}")
            a, b, c = args.cov
            cov = np.array([[a, b], [b, c]])
        elif args.infile is not None:
            data = _read(args.infile, 2, "beta from data needs a two-column input file")
            centered = data - data.mean(axis=0)
            cov = centered.T @ centered / data.shape[0]
        else:
            raise ParameterError("stat --kind beta needs --cov a,b,c or --in FILE")
        value = beta_ratio(cov)
    else:
        if args.infile is None:
            raise ParameterError(f"stat --kind {args.kind} needs --in FILE")
        ndim = statistic_ndim(args.kind)
        data = _read(args.infile, ndim, f"the {args.kind} statistic needs a {ndim}-column input file")
        value = statistic_function(args.kind)(data)
    print(f"{value:.15g}")
    return 0


def _null_from_args(stat_kind: str, args) -> NullSpec:
    if args.null == "gauss":
        return NullSpec.subgauss(2.0, args.rho) if statistic_ndim(stat_kind) == 2 else NullSpec.sas(2.0)
    if args.null == "chi2-1":
        return NullSpec.chi2_one()
    if args.alpha is None:
        raise ParameterError(f"--null {args.null} needs --alpha")
    return NullSpec.sas(args.alpha) if args.null == "sas" else NullSpec.subgauss(args.alpha, args.rho)


def _cmd_quantile_table(args) -> int:
    cache = QuantileCache(args.cache_dir)
    null = _null_from_args(args.stat, args)
    table = cache.get_or_compute(args.stat, null, args.n, args.levels, args.reps, args.seed, workers=args.workers)
    print(json.dumps(table.to_payload(), indent=2, sort_keys=True))
    return 0


def _test_config(args) -> testing.TestConfig:
    return testing.TestConfig(
        reps=args.reps,
        seed=args.seed,
        workers=args.workers,
        cache=QuantileCache(args.cache_dir) if args.cache_dir else None,
    )


def _print_test(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return
    d = result.to_dict()
    print(f"{d['statistic']} test (n = {d['n']}, level = {d['level']:g})")
    print(f"  observed    = {d['observed']:.15g}")
    region = " u ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in d["region"])
    print(f"  rejection   = {region}")
    if "p_value" in d:
        print(f"  p-value     = {d['p_value']:.6g}")
    if "critical" in d:
        print(f"  critical    = {d['critical']:.6g} ({d['critical_source']})")
    print(f"  decision    = {d['decision']}")


def _cmd_test_uni(args) -> int:
    data = _read(args.infile, 1, "test-uni expects a one-column input file")
    result = testing.test_alpha(data, args.alpha_star, args.level, args.alt, _test_config(args))
    _print_test(result, args.json)
    return 0


def _cmd_test_biv(args) -> int:
    data = _read(args.infile, 2, "test-biv expects a two-column input file")
    cfg = _test_config(args)
    if args.alpha_star is None:
        if args.alt != "less":
            raise ParameterError(f"--alt {args.alt} needs --alpha-star; the Gaussianity tests test alpha < 2")
        result = testing.gaussianity_test(args.stat, data, args.level, cfg, critical=args.critical)
    elif args.stat == "s1" and args.critical == "mc":
        result = testing.test_bivariate_alpha_s1(data, args.alpha_star, args.level, args.alt, cfg)
    else:
        raise ParameterError(
            "--alpha-star needs --stat s1 with Monte Carlo critical values; "
            "S2 and the baseline tests support only the Gaussian null"
        )
    _print_test(result, args.json)
    return 0


def _cmd_ci_alpha(args) -> int:
    data = _read(args.infile, 1, "ci-alpha expects a one-column input file")
    interval = testing.ci_alpha(data, args.level, args.grid, _test_config(args))
    if args.json:
        print(json.dumps(interval.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{args.level:.0%} confidence interval for the stability index: "
            f"[{interval.lower:.2f}, {interval.upper:.2f}] (grid step {interval.grid_step:g})"
        )
    return 0


def _cmd_power(args) -> int:
    # Flag dests are the config's field names; a --config file replaces every flag but --seed.
    known = [f.name for f in dataclasses.fields(harness.PowerStudyConfig)]
    settings = {name: getattr(args, name) for name in known}
    if args.config:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ParameterError(f"{args.config}: not UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ParameterError(f"{args.config} must hold a JSON object of power-study settings")
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ParameterError(f"unknown power-study config key(s) {unknown} in {args.config}; known: {known}")
        settings = {"seed": args.seed, **raw}
    cfg = harness.PowerStudyConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in settings.items()})
    cells = harness.run_power_study(cfg, cache=QuantileCache(args.cache_dir), workers=args.workers)
    harness.power_curve_to_csv(cells, args.out_csv)
    print(f"wrote {len(cells)} power rows to {args.out_csv}")
    return 0


def _cmd_analyze(args) -> int:
    method, window = "none", None
    if args.standardize:
        token = args.standardize
        if token == "rolling" or token.startswith("rolling:"):
            method = "rolling-conditional-std"
            if ":" in token:
                try:
                    window = int(token.split(":", 1)[1])
                except ValueError:
                    raise ParameterError(f"window of --standardize {token!r} must be an integer") from None
        elif token in ("global", "global-scale"):
            method = "global-scale"
        elif token != "none":
            raise ParameterError(f"unknown standardization {token!r}; expected none, global or rolling:W")
    m = None
    if args.m is not None:
        if len(args.m) != 4:
            raise ParameterError("--m expects four comma-separated numbers a,b,c,d (row major)")
        m = np.array(args.m).reshape(2, 2)
    cfg = harness.AnalyzeConfig(
        m=m,
        standardize_method=method,
        window=window,
        tests=tuple(args.tests),
        with_ci=args.ci,
        level=args.level,
        ci_level=args.ci_level,
        grid_step=args.grid,
        mc=_test_config(args),
    )
    report = harness.analyze(args.infile, cfg)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"analyzed {report['input']} ({report['rows']} rows)")
        if "var1" in report:
            print(f"  VAR(1) residuals: {report['var1']['residual_rows']} rows")
        if "standardize" in report:
            print(f"  standardization: {report['standardize']['method']}")
        for test in report["tests"]:
            print(f"  {test['statistic']}: observed {test['observed']:.6g} -> {test['decision']}")
        for name, ci in report.get("ci", {}).items():
            print(f"  {name}: {ci['level']:.0%} CI for alpha = [{ci['lower']:.2f}, {ci['upper']:.2f}]")
    return 0


def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reps", type=int, default=10_000, help="Monte Carlo replicates for critical values")
    p.add_argument("--seed", type=int, default=0, help="root seed of the simulation streams")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="directory of persisted null replicates, one binary <digest>.f8 file per key "
        "(older <digest>.json files are ignored)",
    )
    p.add_argument("--workers", type=int, default=1, help="parallel workers for the Monte Carlo engine")


def _sample_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, choices=["sas", "pos-stable", "gauss2", "subgauss", "chi2-1"])
    p.add_argument("--alpha", type=float, default=2.0, help="stability index")
    p.add_argument("--sigma", type=float, default=1.0, help="scale of the univariate stable law")
    p.add_argument("--rho", type=float, default=0.0, help="correlation of the Gaussian core")
    p.add_argument("--var1", type=float, default=1.0, help="variance of the first component")
    p.add_argument("--var2", type=float, default=1.0, help="variance of the second component")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _stat_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=[*statistic_kinds(), "beta"])
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--cov", type=_comma_floats, default=None, help="R11,R12,R22 for --kind beta")


def _quantile_table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stat", required=True, choices=statistic_kinds())
    p.add_argument("--null", required=True, choices=["gauss", "sas", "subgauss", "chi2-1"])
    p.add_argument("--alpha", type=float, default=None, help="stability index of the null")
    p.add_argument("--rho", type=float, default=0.0, help="correlation of the bivariate null")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--levels", type=_comma_floats, required=True)
    _add_mc_flags(p)


def _test_uni_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha-star", type=float, required=True)
    p.add_argument("--alt", default="less", choices=["less", "greater", "two-sided"])
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--json", action="store_true")
    _add_mc_flags(p)


def _test_biv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stat", required=True, choices=gaussianity_statistics())
    p.add_argument("--alpha-star", type=float, default=None)
    p.add_argument("--alt", default="less", choices=["less", "greater", "two-sided"], help="default: less")
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--critical", default="mc", choices=["mc", "asymptotic"], help="baseline critical values")
    p.add_argument("--json", action="store_true")
    _add_mc_flags(p)


def _ci_alpha_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--grid", type=float, default=0.01)
    p.add_argument("--json", action="store_true")
    _add_mc_flags(p)


def _power_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON file of power-study settings")
    p.add_argument("--stats", dest="statistics", type=_comma_names, default=["s1", "s2"])
    p.add_argument("--alphas", type=_comma_floats, default=list(harness.DEFAULT_ALPHA_GRID))
    p.add_argument("--sizes", type=_comma_ints, default=[10, 30, 100])
    p.add_argument("--betas", type=_comma_floats, default=[0.0])
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--null-reps", type=int, default=10_000, help="replicates behind each critical value")
    p.add_argument("--alt-reps", type=int, default=1_000, help="replicates under each alternative")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", required=True)


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=_comma_floats, default=None, help="VAR(1) matrix a,b,c,d (row major)")
    p.add_argument("--standardize", default=None, help="none, global, or rolling:W")
    p.add_argument("--tests", type=_comma_names, default=["s1", "s2"])
    p.add_argument("--ci", action="store_true", help="add a test-inversion confidence interval")
    p.add_argument("--level", type=float, default=0.05, help="significance level of the tests")
    p.add_argument("--ci-level", type=float, default=0.95)
    p.add_argument("--grid", type=float, default=0.01)
    p.add_argument("--json", action="store_true")
    _add_mc_flags(p)


# Subcommand -> (help line, function adding its flags, function running it), in help order.
_COMMANDS = {
    "sample": ("draw from the supported distributions", _sample_flags, _cmd_sample),
    "stat": ("evaluate a statistic on a data file", _stat_flags, _cmd_stat),
    "quantile-table": ("estimate and cache null quantiles", _quantile_table_flags, _cmd_quantile_table),
    "test-uni": ("univariate stability-index test", _test_uni_flags, _cmd_test_uni),
    "test-biv": ("bivariate Gaussianity / stability-index tests", _test_biv_flags, _cmd_test_biv),
    "ci-alpha": ("confidence interval for the stability index", _ci_alpha_flags, _cmd_ci_alpha),
    "power": ("run a power study and write tidy CSV", _power_flags, _cmd_power),
    "analyze": ("ingest, filter, standardize and test a data file", _analyze_flags, _cmd_analyze),
}


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, built anew on each call.

    :func:`main` parses with the one that :func:`_parser` keeps for the process.
    """
    # The help shows the docstring's first two paragraphs.
    parser = argparse.ArgumentParser(prog="greenstat", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_flags(p)
        p.set_defaults(func=run)
    return parser


@functools.lru_cache(maxsize=1)
def _parser(kinds: tuple[str, ...], gaussianity: tuple[str, ...]) -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process and again only when the statistic registry's names change."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    return _parser(statistic_kinds(), gaussianity_statistics()).parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        return args.func(args)
    except (GreenstatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
