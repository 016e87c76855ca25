"""Power-study driver and the applied data pipeline.

The power study calibrates every Gaussianity statistic's critical value
under the null that its :class:`greenstat.mc.Statistic` record assigns it (at
correlation 0), then estimates rejection frequencies over sub-Gaussian
alternatives on a grid of stability indexes, sample sizes and covariance
shapes.  The data pipeline ingests one- or two-column CSV series, extracts
VAR(1) residuals for a given coefficient matrix, optionally standardizes
them, and runs a battery of tests plus a confidence interval.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import CsvFormatError, DegenerateSampleError, ParameterError
from .mc import QuantileCache, TestConfig, _block_rows, gaussianity_statistic
from .rng import RngStream, _typed
from .sampling import _sub_gaussian_from
from .testing import ci_alpha, gaussianity_test, test_alpha_right

__all__ = [
    "PowerStudyConfig",
    "PowerCell",
    "Var1Model",
    "run_power_study",
    "power_curve_to_csv",
    "ingest_csv",
    "var1_residuals",
    "standardize",
    "analyze",
    "DEFAULT_ALPHA_GRID",
]

DEFAULT_ALPHA_GRID = tuple(round(1.80 + 0.02 * k, 2) for k in range(11))
_NUMBER = (int, float, np.integer, np.floating)

# Elements of one block of rolling windows (8 bytes each), about 2 MB.  The
# window-major copy and the standard deviation's temporaries are each one block,
# so the memory of a rolling standardization stays near its output's size at
# any length and window.
_WINDOW_ELEMENTS = 1 << 18


@dataclass
class PowerStudyConfig:
    """Grid and replication settings of a power study."""

    statistics: tuple[str, ...] = ("s1", "s2")
    alphas: tuple[float, ...] = DEFAULT_ALPHA_GRID
    sizes: tuple[int, ...] = (10, 30, 100)
    betas: tuple[float, ...] = (0.0,)
    level: float = 0.05
    null_reps: int = 10_000
    alt_reps: int = 1_000
    seed: int = 0

    def __post_init__(self) -> None:
        # A JSON config arrives unchecked, so each check also rejects a value of the wrong type.
        if not all(isinstance(v, (tuple, list)) and v for v in (self.statistics, self.alphas, self.sizes, self.betas)):
            raise ParameterError("statistics, alphas, sizes and betas must all be non-empty lists")
        records = [gaussianity_statistic(name) for name in self.statistics]
        for a in self.alphas:
            if not _typed(a, _NUMBER) or not 0.0 < a <= 2.0:
                raise ParameterError(f"alpha values must lie in (0, 2], got {a!r}")
        for b in self.betas:
            if not _typed(b, _NUMBER) or not 0.0 <= b <= 1.0:
                raise ParameterError(f"beta values must lie in [0, 1], got {b!r}")
        singular = [r.kind for r in records if r.whitens]
        if singular and 0.0 in self.betas:
            raise ParameterError(f"beta = 0 makes the Gaussian core singular, so {singular} cannot whiten the sample")
        if not all(_typed(n) for n in self.sizes):
            raise ParameterError(f"sample sizes must be integers, got {self.sizes!r}")
        need = {r.kind: r.min_n for r in records if min(self.sizes) < r.min_n}
        if need:
            raise ParameterError(f"sample sizes must be at least the statistics' minimums {need}")
        if not _typed(self.level, _NUMBER) or not 0.0 < self.level < 1.0:
            raise ParameterError(f"level must lie in (0, 1), got {self.level!r}")
        if not all(_typed(r) and r >= 100 for r in (self.null_reps, self.alt_reps)):
            reps = f"{self.null_reps!r} and {self.alt_reps!r}"
            raise ParameterError(f"null_reps and alt_reps must be integers of at least 100, got {reps}")


@dataclass(frozen=True)
class PowerCell:
    """Empirical power of one statistic at one grid point."""

    statistic: str
    n: int
    alpha: float
    beta: float
    power: float
    se: float
    alt_reps: int
    null_reps: int
    seed: int
    degenerate: int = 0


def run_power_study(
    cfg: PowerStudyConfig,
    cache: QuantileCache | None = None,
    workers: int = 1,
) -> list[PowerCell]:
    """Estimate rejection frequencies over the configured grid.

    Every (n, alpha, beta) cell draws its ``alt_reps`` alternative samples
    once and scores them with every configured statistic; replicate ``j`` of
    cell ``i`` uses the stream ``RngStream(seed, (i, j))``, so results do not
    depend on scheduling or worker count.  The samples are stacked into
    blocks of the engine's size, and each statistic's registered ``rows``
    kernel scores a whole block; a NaN value is a degenerate replicate.  More
    than 0.1% degenerate replicates of one statistic in any cell fails the run.
    """
    cache = cache if cache is not None else QuantileCache()
    criticals: dict[tuple[str, int], float] = {}
    for name in cfg.statistics:
        table_stat, null = gaussianity_statistic(name).gaussian_calibration()
        for n in cfg.sizes:
            table = cache.get_or_compute(
                table_stat, null, n, (1.0 - cfg.level,), cfg.null_reps, cfg.seed, workers=workers
            )
            criticals[(name, n)] = table.values[0]

    cells: list[PowerCell] = []
    ordinal = 0
    for n in cfg.sizes:
        K = _block_rows(n, 2)
        for alpha in cfg.alphas:
            for beta in cfg.betas:
                rho = (1.0 - beta) / (1.0 + beta)
                cov = np.array([[1.0, rho], [rho, 1.0]])
                values = {name: np.empty(cfg.alt_reps) for name in cfg.statistics}
                for lo in range(0, cfg.alt_reps, K):
                    gens = (RngStream(cfg.seed, (ordinal, j)).generator() for j in range(lo, min(lo + K, cfg.alt_reps)))
                    block = np.stack([_sub_gaussian_from(gen, alpha, cov, n) for gen in gens])
                    for name, v in values.items():
                        v[lo : lo + K] = gaussianity_statistic(name).rows(block)
                for name in cfg.statistics:
                    degenerate = int(np.isnan(values[name]).sum())
                    if degenerate > 0.001 * cfg.alt_reps:
                        raise DegenerateSampleError(
                            f"{degenerate} of {cfg.alt_reps} alternative replicates were degenerate "
                            f"for statistic {name!r} at (n={n}, alpha={alpha}, beta={beta})"
                        )
                    p = int((values[name] >= criticals[(name, n)]).sum()) / cfg.alt_reps
                    cells.append(
                        PowerCell(
                            statistic=name,
                            n=int(n),
                            alpha=float(alpha),
                            beta=float(beta),
                            power=p,
                            se=float(np.sqrt(p * (1.0 - p) / cfg.alt_reps)),
                            alt_reps=cfg.alt_reps,
                            null_reps=cfg.null_reps,
                            seed=cfg.seed,
                            degenerate=degenerate,
                        )
                    )
                ordinal += 1
    return cells


def power_curve_to_csv(cells: list[PowerCell], path) -> None:
    """Write power-study rows as tidy CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["statistic", "n", "alpha", "beta", "power", "se", "B1", "B0", "seed"])
        for cell in cells:
            writer.writerow(
                [
                    cell.statistic,
                    cell.n,
                    repr(cell.alpha),
                    repr(cell.beta),
                    repr(cell.power),
                    repr(cell.se),
                    cell.alt_reps,
                    cell.null_reps,
                    cell.seed,
                ]
            )


def ingest_csv(path) -> np.ndarray:
    """Parse a one- or two-column numeric CSV file of UTF-8 text, with or without a BOM.

    A single leading header line is skipped when its fields are not
    numeric.  Returns shape ``(n,)`` for one column or ``(n, 2)`` for two.
    Ragged rows and non-numeric cells raise :class:`CsvFormatError` naming
    the offending line, and so does text that is not UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            first = fh.readline().strip()
            header = bool(first) and _numbers(first) is None
            fh.seek(0)
            # numpy's parser stays for speed: best of 3-200 runs on two columns (2-CPU Xeon, numpy 2.4), it
            # reads 336 / 1e5 / 1e6 rows in 0.22 ms / 82 ms / 0.69 s, against 0.51 / 181 / 2,300 ms line by line.
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # a file without data warns; the line parser reports it
                    arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, skiprows=int(header))
                if len(arr) and arr.shape[1] in (1, 2):
                    return arr[:, 0] if arr.shape[1] == 1 else arr
            except ValueError:
                pass
            # What numpy rejects (1_0, lines of blanks, bad rows), the line parser reads or reports.
            fh.seek(0)
            return _ingest_lines(fh, path)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _numbers(line: str) -> list[float] | None:
    """The comma-separated fields of a stripped line as floats, or None if one is not a number."""
    try:
        return [float(f.strip()) for f in line.split(",")]
    except ValueError:
        return None


def _ingest_lines(fh, path) -> np.ndarray:
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        values = _numbers(line)
        if values is None:
            if not rows and lineno == 1:
                continue  # header
            raise CsvFormatError(f"{path}: non-numeric value on line {lineno}: {line!r}")
        if width is None:
            width = len(values)
            if width not in (1, 2):
                raise CsvFormatError(f"{path}: expected 1 or 2 columns, found {width} on line {lineno}")
        elif len(values) != width:
            raise CsvFormatError(f"{path}: ragged row on line {lineno}: expected {width} fields, found {len(values)}")
        rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no numeric data found")
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0] if width == 1 else arr


@dataclass(frozen=True)
class Var1Model:
    """First-order vector autoregression coefficient matrix."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ParameterError("VAR(1) coefficient matrix must be a finite 2x2 matrix")
        object.__setattr__(self, "m", m)

    def simulate(self, innovations: np.ndarray) -> np.ndarray:
        """Run the recursion ``X_t = M X_{t-1} + xi_t`` from ``X_0 = 0`` over given innovations."""
        xi = np.asarray(innovations, dtype=float)
        out = np.empty_like(xi)
        prev = np.zeros(2)
        for t in range(xi.shape[0]):
            prev = self.m @ prev + xi[t]
            out[t] = prev
        return out


def var1_residuals(series, model: Var1Model | np.ndarray) -> np.ndarray:
    """Residuals ``xi_t = X_t - M X_{t-1}`` for ``t = 2..T``; length ``T - 1``."""
    if not isinstance(model, Var1Model):
        model = Var1Model(np.asarray(model))
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError(f"VAR(1) filtering expects a (T, 2) series, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ParameterError("VAR(1) filtering needs at least two observations")
    return arr[1:] - arr[:-1] @ model.m.T


def standardize(series, method: str = "none", window: int | None = None) -> np.ndarray:
    """Rescale a series (columns treated separately) by a dispersion estimate.

    ``"none"`` returns the input unchanged; ``"global-scale"`` divides each
    component by its mean absolute value; ``"rolling-conditional-std"``
    divides each observation by the standard deviation over the trailing
    ``window`` observations of its component (the first full window is used
    for the initial positions, so ``window = len(series)`` reduces to one
    global scale per component).
    """
    arr = np.asarray(series, dtype=float)
    squeeze = arr.ndim == 1
    cols = arr[:, None] if squeeze else arr
    if method == "none":
        out = cols.copy()
    elif method == "global-scale":
        scale = np.mean(np.abs(cols), axis=0)
        if np.any(scale == 0.0):
            raise ParameterError("a component has zero mean absolute value; cannot standardize")
        out = cols / scale
    elif method == "rolling-conditional-std":
        if not _typed(window) or window < 2:
            raise ParameterError(f"rolling standardization needs an integer window of at least 2, got {window!r}")
        t_len = cols.shape[0]
        if window > t_len:
            raise ParameterError(f"window {window} exceeds series length {t_len}")
        # Window k ends at position window - 1 + k; shape (windows, cols, window).
        windows = sliding_window_view(cols, window, axis=0)
        out = np.empty_like(cols)
        block = max(1, _WINDOW_ELEMENTS // (window * cols.shape[1]))
        for lo in range(0, len(windows), block):
            part = windows[lo : lo + block]
            if cols.shape[1] == 1:
                # numpy sums each contiguous window pairwise, as the row loop does
                # for one column; a window-major copy would sum it in another order.
                sd = np.std(part, axis=2)
            else:
                # A window-major copy, shape (window, windows, cols), sums every
                # window in the row loop's sequential order along long inner loops.
                sd = np.std(np.ascontiguousarray(part.transpose(2, 0, 1)), axis=0)
            out[window - 1 + lo : window - 1 + lo + block] = sd
        # Positions before the first full window borrow it.
        out[: window - 1] = out[window - 1]
        zero = np.flatnonzero(np.any(out == 0.0, axis=1))
        if zero.size:
            raise ParameterError(f"zero standard deviation in the window ending at position {zero[0]}")
        np.divide(cols, out, out=out)
    else:
        raise ParameterError(
            f"unknown standardization {method!r}; expected 'none', 'global-scale' or 'rolling-conditional-std'"
        )
    return out[:, 0] if squeeze else out


@dataclass
class AnalyzeConfig:
    """Pipeline settings for :func:`analyze`."""

    m: np.ndarray | None = None
    standardize_method: str = "none"
    window: int | None = None
    tests: tuple[str, ...] = ("s1", "s2")
    with_ci: bool = False
    level: float = 0.05
    ci_level: float = 0.95
    grid_step: float = 0.01
    mc: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self) -> None:
        for name in self.tests:
            gaussianity_statistic(name)


def analyze(path, cfg: AnalyzeConfig | None = None) -> dict:
    """Run the ingestion / residual / standardization / testing pipeline on a file.

    For bivariate input the requested bivariate tests run on the pairs and
    the confidence interval (when asked for) is computed per component; for
    univariate input the Gaussianity test runs on the single series.
    Returns a JSON-serializable report.
    """
    cfg = cfg or AnalyzeConfig()
    data = ingest_csv(path)
    report: dict = {"input": str(path), "rows": int(np.atleast_1d(data).shape[0])}
    if cfg.m is not None:
        if data.ndim != 2:
            raise ParameterError("VAR(1) filtering requires two-column input")
        data = var1_residuals(data, Var1Model(cfg.m))
        report["var1"] = {"m": np.asarray(cfg.m, dtype=float).tolist(), "residual_rows": int(data.shape[0])}
    if cfg.standardize_method != "none":
        data = standardize(data, cfg.standardize_method, cfg.window)
        report["standardize"] = {"method": cfg.standardize_method, "window": cfg.window}

    results = []
    if data.ndim == 2:
        for name in cfg.tests:
            results.append(gaussianity_test(name, data, cfg.level, cfg.mc).to_dict())
        if cfg.with_ci:
            report["ci"] = {
                f"component{i + 1}": ci_alpha(data[:, i], cfg.ci_level, cfg.grid_step, cfg.mc).to_dict()
                for i in range(2)
            }
    else:
        results.append(test_alpha_right(data, 2.0, cfg.level, cfg.mc).to_dict())
        if cfg.with_ci:
            report["ci"] = {"component1": ci_alpha(data, cfg.ci_level, cfg.grid_step, cfg.mc).to_dict()}
    report["tests"] = results
    return report
