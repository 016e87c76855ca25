"""Record the golden output digests that ``run.py`` checks on the default seed.

    python3 bench/make_golden.py

Runs every input of every workload once, at full scale and the default
data seed, and writes ``bench/golden.json``.  Take the digests again only
when ``ENGINE_VERSION`` changes: while it holds, outputs must stay
byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    greenstat = run.import_greenstat()
    import workloads

    doc = {"engine_version": greenstat.ENGINE_VERSION, "seed": run.DEFAULT_SEED}
    workdir = os.path.join(run.ROOT, ".bench_work", f"golden-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(run.DEFAULT_SEED, workloads.FULL, workdir)
            workload.start()
            digests = []
            for i in range(workload.n_inputs):
                dig, problems = workload.check(i, workload.op(i))
                if problems:
                    raise RuntimeError(f"{name} input {i}: {problems}")
                digests.append(dig)
                print(name, i, dig, flush=True)
            doc[name] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.BENCH_DIR, "golden.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
