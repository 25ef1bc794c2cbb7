"""Time the reduction of large braid images on A3, and check each result.

The input for k is the image of the middle A3 simple (0-based vertex 1)
under (s1 s2' s3)^k: 989 generators at k=5, 3691 at k=6, 13775 at k=7,
51409 at k=8.
For each k the script times `apply_braid` (building the input),
`reduce_to_stable` (bottom strategy, one fixed generic charge) and the
checks of `twistcat.verify.reduction_failures` on the trace: the final
object is semistable, of a root class up to sign, spherical and the
stable object of that class up to shift, and word^-1(start) ≅ final.

    PYTHONPATH=src python3 scripts/large_objects.py [--k 5 6 7]

Prints one JSON line per k, with `peak_rss_mb`, the peak resident memory
of the process so far (`ru_maxrss`), in MB.  Exit code 0 when every check
passes, 1 when one fails; the times and the memory are reported, not
checked.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from twistcat import (
    InvariantViolation,
    StabilityCondition,
    ZigzagAlgebra,
    named_quiver,
    random_generic_charge,
    reduce_to_stable,
)
from twistcat.verify import power_image, reduction_failures


def run(k: int) -> dict:
    q = named_quiver("A3")
    alg = ZigzagAlgebra(q)
    stab = StabilityCondition(alg, random_generic_charge(q, random.Random("large-objects:A3")))
    t0 = time.perf_counter()
    start = power_image(alg, "s1 s2' s3", k, 1)
    t1 = time.perf_counter()
    row = {"k": k, "generators": len(start.generators), "apply_braid_s": round(t1 - t0, 3)}
    try:
        trace = reduce_to_stable(stab, start)
    except (InvariantViolation, ValueError) as exc:
        row.update(reduce_s=round(time.perf_counter() - t1, 3), failures=[str(exc)], ok=False)
        return row
    t2 = time.perf_counter()
    failures = reduction_failures(stab, trace, True)
    t3 = time.perf_counter()
    row.update(
        reduce_s=round(t2 - t1, 3),
        check_s=round(t3 - t2, 3),
        steps=len(trace.steps),
        final_generators=len(trace.final.generators),
        failures=failures,
        ok=not failures,
    )
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="+", default=[5, 6, 7],
                        help="powers of (s1 s2' s3) to run (default: 5 6 7)")
    args = parser.parse_args(argv)
    if any(k < 0 for k in args.k):
        parser.error("every --k must be at least 0")
    ok = True
    for k in args.k:
        row = run(k)
        row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        print(json.dumps(row), flush=True)
        ok = ok and row["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
