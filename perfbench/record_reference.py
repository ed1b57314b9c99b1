"""Record the outputs that workloads.py checks where the paper gives no value.

    python3 perfbench/record_reference.py

Writes reference.json next to this file from the pptgeo in ``src/``.  It was
run once, on the code the benchmark was introduced with; later code is
checked against that record, so re-running it to silence a disagreement
would hide a change in behaviour.
"""
from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"           # as in run.py, before NumPy loads

import workloads as wl  # noqa: E402

GRID_FIELDS = ["ppt", "p", "q", "dim_D", "dim_E", "dim_int", "extreme"]
SEARCH_SEEDS = range(5)


def grid() -> dict:
    table = {}
    for family in ("rho", "sigma"):
        table[family] = {}
        for b in wl.B_GRID:
            rows = []
            for k in wl.K_GRID:
                ppt, ty, _, rep = wl._grid_op(family, b, k).run()
                rows.append([bool(ppt), ty.p, ty.q, rep.dim_ker_D, rep.dim_ker_E,
                             rep.dim_intersection, bool(rep.is_extreme)])
            table[family][repr(b)] = rows
    return table


def appendix_y_span() -> int:
    spans = {wl._appendix_op(b, k).run()[1] for b in wl.B_GRID for k in wl.CENTRAL_ARC}
    if len(spans) != 1:
        raise SystemExit(f"appendix Y span varies over the central arc: {spans}")
    return spans.pop()


def search_found() -> dict:
    found = defaultdict(set)
    for seed in SEARCH_SEEDS:
        for op in wl.certify_search_ops(seed):
            if op.kind != "block_positivity":
                found[op.kind].add(op.run() is not None)
    if any(len(v) != 1 for v in found.values()):
        raise SystemExit(f"search verdicts vary within a kind: {dict(found)}")
    return {kind: v.pop() for kind, v in sorted(found.items())}


def main() -> None:
    from pptgeo.krawtchouk import solve

    ref = {
        "grid_fields": GRID_FIELDS,
        "grid": grid(),
        "appendix_y_span": appendix_y_span(),
        "krawtchouk_m3": {str(n): [[s.k, s.l] for s in solve(3, n)] for n in (3, 8, 15, 24, 35, 48)},
        "search_found": search_found(),
    }
    wl.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
