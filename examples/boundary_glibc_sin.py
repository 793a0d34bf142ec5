#!/usr/bin/env python
"""The paper's Section 6.2 case study: boundary values of GNU ``sin``.

The Glibc 2.19 ``sin`` dispatches on the high word of |x| across five
ranges (Fig. 8).  We instrument ``w = w * abs(k - c)`` before each
``if (k < c)`` — exactly the paper's manual instrumentation — and
minimize with Basinhopping.  All 8 reachable boundary conditions
(4 bounds × 2 signs) should be triggered; the ±2^1024 pair is
unreachable.

Run: python examples/boundary_glibc_sin.py [--samples N]
"""

import argparse

from repro.api import Engine, EngineConfig
from repro.libm import sin as glibc_sin
from repro.mo import BasinhoppingBackend, wide_log_sampler
from repro.util.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=200_000,
                        help="MO sampling budget")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    engine = Engine(
        EngineConfig(
            seed=args.seed,
            backend=BasinhoppingBackend(niter=60, local_maxiter=150),
            n_starts=40,
            start_sampler=wide_log_sampler(-12.0, 10.0),
        )
    )
    report = engine.run(
        "boundary",
        glibc_sin.make_program(),
        # Only sin's own five high-word branches, as in the paper.
        spec=lambda site: site.function == "sin_glibc",
        max_samples=args.samples,
    ).detail

    print(f"samples: {report.n_samples}")
    print(f"boundary values found (|BV|): {len(report.boundary_values)} "
          f"({100.0 * len(report.boundary_values) / report.n_samples:.1f}%"
          " of samples)")
    print(f"soundness replay: "
          f"{'OK — every BV triggers a condition' if report.sound else 'FAILED'}")
    print()

    rows = []
    for label, stats in sorted(report.per_condition.items()):
        rows.append(
            (
                label,
                stats.text,
                stats.hits,
                "-" if stats.min_value is None
                else f"{stats.min_value[0]:.6e}",
                "-" if stats.max_value is None
                else f"{stats.max_value[0]:.6e}",
            )
        )
    print(format_table(("cond", "branch", "hits", "min BV", "max BV"),
                       rows))
    print()
    print(f"conditions triggered: {report.conditions_triggered}/5 "
          "(c5 at ±2^1024 is unreachable — past the largest double)")


if __name__ == "__main__":
    main()
