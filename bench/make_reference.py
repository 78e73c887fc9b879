"""Write reference.json: the value of every row the benchmark can produce.

The benchmark checks each row it times against these values, so they are
the values of the commit the benchmark was defined at. Regenerating them at
a later commit would compare the program with itself; do it only when the
benchmark's inputs change, and say so.

    python3 bench/make_reference.py

The oracle pools take several minutes each (about 5.6 s per weak_gauss
point and 12 s per strong_lorentz point on a 2-core x86-64 machine).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads as wl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from tpa import averaging, cli  # noqa: E402
from tpa.core import NormalizedParams  # noqa: E402


def _scan(doc):
    return cli.run_scan(cli.parse_scan_config(doc), workers=1)


def oracle_reference(workload: str) -> dict:
    pool = list(wl.ORACLE_POOL[workload])
    pairs = list(zip(pool[0::2], pool[1::2]))
    if len(pool) % 2:
        pairs.append((pool[-1], pool[0]))
    refs = {}
    for start, stop in pairs:
        t0 = time.perf_counter()
        scan = _scan(wl.oracle_doc(workload, start, stop))
        for d, v in zip(scan.grid, scan.columns["oracle_avg"]):
            refs[repr(float(d))] = float(v)
        print(f"{workload} {start:+.4f} {stop:+.4f} "
              f"{time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if workload == "weak_gauss":
        fixed = wl.ORACLE_FIXED[workload]
        gaps = []
        for key, value in refs.items():
            series = averaging.averaged_population(NormalizedParams.build(
                delta_tilde=float(key), kind="gaussian", **fixed), order=3)
            gaps.append(abs(value - series) / abs(series))
        print(f"weak_gauss: largest relative gap to the Faddeeva series "
              f"{max(gaps):.3e}", file=sys.stderr)
    return refs


def closed_reference() -> dict:
    refs = {}
    for n in wl.FIGURES:
        scan = cli.run_figure(n)
        names = list(scan.columns)
        refs[f"fig{n}"] = [[float(g)] + [float(scan.columns[c][k])
                                         for c in names]
                           for k, g in enumerate(scan.grid)]
    for variant in range(len(wl.CLOSED_SCANS)):
        scan = _scan(wl.closed_doc(variant))
        refs[f"scan{variant}"] = [float(v) for v in scan.columns["n2+n3"]]
    return refs


def main() -> int:
    doc = {workload: (closed_reference() if workload == "closed_form"
                      else oracle_reference(workload))
           for workload in wl.WORKLOADS}
    wl.REFERENCE_PATH.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
