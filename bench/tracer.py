"""Per-layer tracing of greenstat from outside the package.

``Tracer.install()`` replaces the public entry points of each greenstat
module with timing wrappers, everywhere the name is bound (a function
imported by name into another module is wrapped there too), and
``uninstall()`` puts the originals back.  Each wrapper opens a span named
after its layer; a layer's self time is its spans' duration minus the part
covered by child spans.  Counts are recorded at the same boundaries, and a
call is counted only when it enters the layer from another one.

A name that is missing raises ``LookupError`` at install time, so a rename
inside the package can never silently zero a layer.

Spans opened inside process-pool workers stay in those workers and are
lost.  The power-study workload simulates its null tables in a pool: those
replicates still count in ``mc.replicates_simulated`` (taken from the call's
``B``) and their time shows as ``mc.simulate`` self time, which is the pool
wait; the ``rng``, ``sampling``, ``statistics`` and ``baselines`` figures of
that workload cover only the work done in the benchmark process (the
alternative loop and the observed statistics).
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

# Counts of deterministic work: for one seed they must repeat exactly
# between runs of the same code.
DETERMINISTIC_COUNTS = ("rng.streams", "mc.replicates_simulated", "testing.probes", "harness.alt_replicates")

_BASELINE_FUNCTIONS = (
    "mardia_kurtosis_stat",
    "mardia_skewness_stat",
    "jarque_bera_stat",
    "henze_zirkler_stat",
    "mardia_kurtosis",
    "mardia_skewness",
    "jarque_bera_multivariate",
    "henze_zirkler",
)
_SAMPLERS = {  # name -> (position of n, values per draw)
    "sample_sas": (1, 1),
    "sample_positive_stable": (1, 1),
    "sample_chi2_one": (0, 1),
    "sample_bivariate_gaussian": (1, 2),
    "sample_sub_gaussian": (1, 2),
}


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span, seconds covered by child spans]
        self._undo: list = []

    def reset(self) -> None:
        self.counts.clear()
        self.self_s.clear()

    def _wrapper(self, func, span: str, on_call=None, on_return=None):
        stack, self_s = self._stack, self.self_s

        @functools.wraps(func)
        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != span
            if on_call is not None:
                on_call(outer, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[span] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_return is not None:
                on_return(outer, result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, name: str, span: str, on_call=None, on_return=None, also_in=()):
        """Wrap ``owner.name``, and the same function wherever ``also_in`` binds it."""
        original = owner.__dict__.get(name)
        if original is None:
            raise LookupError(f"cannot trace {owner.__name__}.{name}: name not found")
        wrapped = self._wrapper(original, span, on_call, on_return)
        for target in (owner, *also_in):
            if target is owner or target.__dict__.get(name) is original:
                setattr(target, name, wrapped)
                self._undo.append(functools.partial(setattr, target, name, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> None:
        import greenstat
        from greenstat import baselines, cli, harness, mc, rng, sampling, statistics, testing

        everywhere = (greenstat, baselines, cli, harness, mc, rng, sampling, statistics, testing)
        counts = self.counts

        def count_calls(key):
            def hook(outer, args, kwargs):
                if outer:
                    counts[key] += 1

            return hook

        def count_variates(n_pos, per_draw):
            def hook(outer, args, kwargs):
                if outer:
                    counts["sampling.variates"] += int(args[n_pos]) * per_draw(args)

            return hook

        # rng: one generator per replicate stream.
        self._patch(rng.RngStream, "generator", "rng", on_call=count_calls("rng.streams"))

        # sampling: the engine's null draws, the public samplers, and the
        # power study's alternative draws, which reach sampling only through
        # the name harness imports.
        self._patch(mc.NullSpec, "draw", "sampling", on_call=count_variates(1, lambda a: a[0].ndim))
        for name, (n_pos, per_draw) in _SAMPLERS.items():
            hook = count_variates(n_pos, lambda a, d=per_draw: d)
            self._patch(sampling, name, "sampling", on_call=hook, also_in=everywhere)

        def alternative(outer, args, kwargs):
            counts["harness.alt_replicates"] += 1
            counts["sampling.variates"] += 2 * int(args[3])

        self._patch(harness, "_sub_gaussian_from", "sampling", on_call=alternative)

        # statistics: the mc registry resolves these names at call time.
        for name in ("greenwood", "s1", "s2"):
            self._patch(statistics, name, "statistics", on_call=count_calls("statistics.calls"), also_in=everywhere)

        # baselines: module functions, plus the registered statistics
        # re-registered through the engine's public registry.
        for name in _BASELINE_FUNCTIONS:
            self._patch(baselines, name, "baselines", on_call=count_calls("baselines.calls"), also_in=everywhere)
        for kind in ("kurt", "skew", "jb", "hz"):
            original, ndim = mc.statistic_function(kind), mc.statistic_ndim(kind)
            wrapped = self._wrapper(original, "baselines", on_call=count_calls("baselines.calls"))
            mc.register_statistic(kind, ndim, wrapped)
            self._undo.append(functools.partial(mc.register_statistic, kind, ndim, original))

        # mc: simulation and the cache.  A lookup is useful when it is
        # served without simulating.
        def simulated(outer, args, kwargs):
            counts["mc.tables_simulated"] += 1
            counts["mc.replicates_simulated"] += int(args[3] if len(args) > 3 else kwargs["B"])

        self._patch(mc, "simulate_statistic", "mc.simulate", on_call=simulated, also_in=everywhere)

        simulated_before: list[int] = []

        def lookup_call(outer, args, kwargs):
            simulated_before.append(counts["mc.tables_simulated"])

        def lookup_return(outer, result, args, kwargs):
            before = simulated_before.pop()
            if outer:
                counts["mc.lookups"] += 1
                counts["mc.useful_lookups"] += counts["mc.tables_simulated"] == before

        def loaded(outer, result, args, kwargs):
            counts["mc.disk_hits"] += result is not None

        def stored(outer, result, args, kwargs):
            cache, digest = args[0], args[1]
            if cache.cache_dir is not None:
                counts["mc.disk_files_written"] += 1
                counts["mc.disk_bytes_written"] += os.path.getsize(cache._path(digest))

        for name in ("get_or_compute", "pvalue"):
            self._patch(mc.QuantileCache, name, "mc.table", on_call=lookup_call, on_return=lookup_return)
        self._patch(mc.QuantileCache, "replicates", "mc.table")
        self._patch(mc.QuantileCache, "_load", "mc.table", on_return=loaded)
        self._patch(mc.QuantileCache, "_store", "mc.table", on_return=stored)

        # testing: the tests and the test-inversion interval.
        def probes(outer, result, args, kwargs):
            counts["testing.probes"] += len(result.probes)

        self._patch(testing, "ci_alpha", "testing", on_return=probes, also_in=everywhere)
        test_names = [name for name in testing.__all__ if name.startswith("test_")]
        if not test_names:
            raise LookupError("cannot trace greenstat.testing: no test_* functions found")
        for name in test_names:
            self._patch(testing, name, "testing", also_in=everywhere)

        # harness and cli.
        for name in ("run_power_study", "analyze"):
            self._patch(harness, name, "harness", also_in=everywhere)
        self._patch(cli, "main", "cli", on_call=count_calls("cli.invocations"))

    def layer_metrics(self) -> dict[str, float]:
        c, s = self.counts, self.self_s
        return {
            "rng.streams": c["rng.streams"],
            "rng.self_s": s["rng"],
            "sampling.variates": c["sampling.variates"],
            "sampling.self_s": s["sampling"],
            "statistics.calls": c["statistics.calls"],
            "statistics.self_s": s["statistics"],
            "baselines.calls": c["baselines.calls"],
            "baselines.self_s": s["baselines"],
            "mc.lookups": c["mc.lookups"],
            "mc.tables_simulated": c["mc.tables_simulated"],
            "mc.replicates_simulated": c["mc.replicates_simulated"],
            "mc.useful_ratio": c["mc.useful_lookups"] / c["mc.lookups"] if c["mc.lookups"] else 0.0,
            "mc.disk_hits": c["mc.disk_hits"],
            "mc.disk_files_written": c["mc.disk_files_written"],
            "mc.disk_bytes_written": c["mc.disk_bytes_written"],
            "mc.simulate_self_s": s["mc.simulate"],
            "mc.table_self_s": s["mc.table"],
            "testing.probes": c["testing.probes"],
            "testing.self_s": s["testing"],
            "harness.alt_replicates": c["harness.alt_replicates"],
            "harness.self_s": s["harness"],
            "cli.invocations": c["cli.invocations"],
            "cli.self_s": s["cli"],
        }
