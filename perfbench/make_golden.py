"""Regenerate the golden outputs from the package in this checkout.

    python3 perfbench/make_golden.py [workload ...]

Runs every operation of each workload's pool once and writes the
fingerprints to ``golden/<workload>.json``.  Run it only at a commit whose
outputs are known to be right: the benchmark fails any later commit whose
outputs move away from these.
"""

from __future__ import annotations

import json
import sys
import time

import common


def main(argv) -> int:
    common.bootstrap()
    import run
    import workloads

    md = run.import_package()
    names = argv or list(workloads.WORKLOADS)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        wl = workloads.WORKLOADS[name](common.WORKDIR)
        pool = wl.pool()
        wl.prepare(pool)
        t0 = time.perf_counter()
        entries = {op.key: wl.fingerprint(wl.run(md, op)) for op in pool}
        meta = {
            "workload": name,
            "operations": len(entries),
            "quadrature": {"t_step": workloads.T_STEP, "t_max": workloads.T_MAX},
            "environment": common.environment(),
        }
        path = workloads.GOLDEN_DIR / f"{name}.json"
        with open(path, "w") as fh:
            fh.write('{"meta": ' + json.dumps(meta, sort_keys=True) + ',\n "entries": {\n')
            fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())))
            fh.write("\n}}\n")
        print(f"{name}: {len(entries)} golden entries in {time.perf_counter() - t0:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
