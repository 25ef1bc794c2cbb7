"""Time the reduction of large braid images, and check each result.

The input for k is the image of one simple under a word taken k times.
On A3 (the default) it is the middle simple (0-based vertex 1) under
(s1 s2' s3)^k: 989 generators at k=5, 3691 at k=6, 13775 at k=7, 51409
at k=8.  D4 and E6 take the words and vertices of
`twistcat.verify.LARGE_INPUTS` (D4 k=6 has 20569 generators, E6 k=6
9847), and E8 takes s1 s3' s4 s2' s5 s6' s7 s8' on vertex 3 (595
generators at k=4).
For each k the script times `apply_braid` (building the input),
`reduce_to_stable` (bottom strategy, one fixed generic charge per type)
and the checks of `twistcat.verify.reduction_failures` on the trace: the
final object is semistable, of a root class up to sign, spherical and the
stable object of that class up to shift, and word^-1(start) ≅ final.

    PYTHONPATH=src python3 scripts/large_objects.py [--type A3|D4|E6|E8] [--k 5 6 7]

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
from twistcat.verify import LARGE_INPUTS, power_image, reduction_failures

# type -> (word, 0-based vertex of the simple it acts on)
INPUTS = {t: (text, vertex) for t, (text, _, vertex) in LARGE_INPUTS.items()}
INPUTS["E8"] = ("s1 s3' s4 s2' s5 s6' s7 s8'", 3)


def run(type_name: str, k: int) -> dict:
    q = named_quiver(type_name)
    alg = ZigzagAlgebra(q)
    rng = random.Random(f"large-objects:{type_name}")
    stab = StabilityCondition(alg, random_generic_charge(q, rng))
    text, vertex = INPUTS[type_name]
    t0 = time.perf_counter()
    start = power_image(alg, text, k, vertex)
    t1 = time.perf_counter()
    row = {"type": type_name, "k": k, "generators": len(start.generators),
           "apply_braid_s": round(t1 - t0, 3)}
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
    parser.add_argument("--type", choices=sorted(INPUTS), default="A3",
                        help="the type whose word is taken (default: A3)")
    parser.add_argument("--k", type=int, nargs="+", default=[5, 6, 7],
                        help="powers of the word to run (default: 5 6 7)")
    args = parser.parse_args(argv)
    if any(k < 0 for k in args.k):
        parser.error("every --k must be at least 0")
    ok = True
    for k in args.k:
        row = run(args.type, k)
        row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        print(json.dumps(row), flush=True)
        ok = ok and row["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
