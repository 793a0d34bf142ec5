"""Seeded generator of a synthetic floating-point project.

The ``rescan-edit`` workload scans a tree many times larger than
``examples/``.  This module writes one: ``.py`` and ``.c`` files whose
kernels sit inside the two frontends' subsets, plus out-of-subset
decoys and overflow-hazard kernels.  Every kernel draws its own
constants, so no two functions lower to the same program (the tree has
no twins, and a digest-dedup change has nothing to share here).

Each :class:`Kernel` records its ground truth, which the benchmark
checks the program against:

* ``in_subset`` — the frontend must lower it;
* ``hazard`` — some finite input overflows it, so the static tier must
  never certify it overflow-safe.

:meth:`Project.edit` re-draws the constants of one kernel, so the next
scan sees a changed digest for that function only.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Dict, List, Tuple


def _num(value: float) -> str:
    return repr(float(value))


@dataclasses.dataclass
class Kernel:
    family: str
    name: str
    lang: str  # "py" or "c"
    consts: Tuple[float, ...]
    in_subset: bool
    hazard: bool

    def source(self) -> str:
        return _RENDER[self.family](self)


def _draw(family: str, rng: random.Random) -> Tuple[float, ...]:
    lo = -rng.uniform(1.0, 8.0)
    hi = rng.uniform(1.0, 8.0)
    coeffs = tuple(round(rng.uniform(-2.0, 2.0), 6) for _ in range(4))
    if family == "hazard_scale":
        return (10.0 ** rng.randint(150, 300), *coeffs)
    if family == "hazard_exp":
        return (round(rng.uniform(2.0, 50.0), 6), *coeffs)
    if family == "guarded_loop":
        return (lo, hi, float(rng.randint(4, 12)), *coeffs)
    return (lo, hi, *coeffs)


# -- renderers: one Python and one C spelling per family -------------------


def _guarded_horner(k: Kernel) -> str:
    lo, hi, a, b, c, d = map(_num, k.consts)
    if k.lang == "py":
        return (
            f"def {k.name}(x):\n"
            f"    if {lo} < x and x < {hi}:\n"
            f"        return (({a} * x + {b}) * x + {c}) * x + {d}\n"
            f"    return 0.0\n"
        )
    return (
        f"double {k.name}(double x) {{\n"
        f"    if ({lo} < x && x < {hi}) {{\n"
        f"        return (({a} * x + {b}) * x + {c}) * x + {d};\n"
        f"    }}\n"
        f"    return 0.0;\n"
        f"}}\n"
    )


def _guarded_wave(k: Kernel) -> str:
    lo, hi, a, b, c, d = map(_num, k.consts)
    if k.lang == "py":
        return (
            f"def {k.name}(x):\n"
            f"    if {lo} < x and x < {hi}:\n"
            f"        s = math.sin({a} * x)\n"
            f"        c = math.cos({b} * x)\n"
            f"        return {c} * s + {d} * c + 0.125 * s * c\n"
            f"    return 0.0\n"
        )
    return (
        f"double {k.name}(double x) {{\n"
        f"    if ({lo} < x && x < {hi}) {{\n"
        f"        double s = sin({a} * x);\n"
        f"        double c = cos({b} * x);\n"
        f"        return {c} * s + {d} * c + 0.125 * s * c;\n"
        f"    }}\n"
        f"    return 0.0;\n"
        f"}}\n"
    )


def _guarded_loop(k: Kernel) -> str:
    lo, hi, n, a, b, _, _ = map(_num, k.consts)
    if k.lang == "py":
        return (
            f"def {k.name}(x):\n"
            f"    if {lo} < x and x < {hi}:\n"
            f"        y = 0.0\n"
            f"        k = 1.0\n"
            f"        while k <= {n}:\n"
            f"            y = 0.5 * math.sin(k * x) + 0.25 * y + {a} * 0.1\n"
            f"            k = k + 1.0\n"
            f"        return y + {b}\n"
            f"    return 0.0\n"
        )
    return (
        f"double {k.name}(double x) {{\n"
        f"    if ({lo} < x && x < {hi}) {{\n"
        f"        double y = 0.0;\n"
        f"        double k = 1.0;\n"
        f"        while (k <= {n}) {{\n"
        f"            y = 0.5 * sin(k * x) + 0.25 * y + {a} * 0.1;\n"
        f"            k = k + 1.0;\n"
        f"        }}\n"
        f"        return y + {b};\n"
        f"    }}\n"
        f"    return 0.0;\n"
        f"}}\n"
    )


def _hazard_scale(k: Kernel) -> str:
    big, a, b, _, _ = map(_num, k.consts)
    if k.lang == "py":
        return (
            f"def {k.name}(x):\n"
            f"    y = x * {big}\n"
            f"    return y * y + {a} * x + {b}\n"
        )
    return (
        f"double {k.name}(double x) {{\n"
        f"    double y = x * {big};\n"
        f"    return y * y + {a} * x + {b};\n"
        f"}}\n"
    )


def _hazard_exp(k: Kernel) -> str:
    rate, a, b, _, _ = map(_num, k.consts)
    if k.lang == "py":
        return (
            f"def {k.name}(x, y):\n"
            f"    if x < {a}:\n"
            f"        return math.exp({rate} * x) + y\n"
            f"    return math.exp({rate} * y) * {b}\n"
        )
    return (
        f"double {k.name}(double x, double y) {{\n"
        f"    if (x < {a}) {{\n"
        f"        return exp({rate} * x) + y;\n"
        f"    }}\n"
        f"    return exp({rate} * y) * {b};\n"
        f"}}\n"
    )


def _hazard_quotient(k: Kernel) -> str:
    lo, hi, a, b, c, _ = map(_num, k.consts)
    if k.lang == "py":
        return (
            f"def {k.name}(x, d):\n"
            f"    return (x * {a} + {b}) / (d - {c}) + {hi} * x * d\n"
        )
    return (
        f"double {k.name}(double x, double d) {{\n"
        f"    return (x * {a} + {b}) / (d - {c}) + {hi} * x * d;\n"
        f"}}\n"
    )


def _decoy(k: Kernel) -> str:
    a = _num(k.consts[2])
    if k.lang == "py":
        return (
            f"def {k.name}(xs):\n"
            f"    total = {a}\n"
            f"    for value in xs:\n"
            f"        total = total + value\n"
            f"    return total\n"
        )
    return (
        f"double {k.name}(const double *xs, double n) {{\n"
        f"    return xs[0] * n + {a};\n"
        f"}}\n"
    )


_RENDER = {
    "guarded_horner": _guarded_horner,
    "guarded_wave": _guarded_wave,
    "guarded_loop": _guarded_loop,
    "hazard_scale": _hazard_scale,
    "hazard_exp": _hazard_exp,
    "hazard_quotient": _hazard_quotient,
    "decoy": _decoy,
}

#: (family, weight) of the tree's mix; decoys are out of subset.
_FAMILIES = (
    ("guarded_horner", 3),
    ("guarded_wave", 2),
    ("guarded_loop", 1),
    ("hazard_scale", 1),
    ("hazard_exp", 1),
    ("hazard_quotient", 1),
    ("decoy", 1),
)
_HAZARDS = {"hazard_scale", "hazard_exp", "hazard_quotient"}


class Project:
    """A generated tree of ``n_files`` files, ``per_file`` kernels each."""

    def __init__(self, root: str, seed: int, n_files: int, per_file: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        # A fixed family mix (the weights, exactly, when the kernel count
        # is a multiple of their sum), placed in seeded order: every seed
        # gets a tree of the same composition.
        names = [f for f, w in _FAMILIES for _ in range(w)]
        families = [names[i % len(names)] for i in range(n_files * per_file)]
        self.rng.shuffle(families)
        self.files: Dict[str, List[Kernel]] = {}
        for i in range(n_files):
            lang = "py" if i % 2 == 0 else "c"
            rel = os.path.join(f"pkg{i % 4}", f"mod{i:03d}.{lang}")
            kernels = []
            for j in range(per_file):
                family = families.pop()
                kernels.append(
                    Kernel(
                        family=family,
                        name=f"{family}_{i}_{j}",
                        lang=lang,
                        consts=_draw(family, self.rng),
                        in_subset=family != "decoy",
                        hazard=family in _HAZARDS,
                    )
                )
            self.files[rel] = kernels
        self._mtime_tick = 0

    def kernels(self) -> List[Tuple[str, Kernel]]:
        return [(rel, k) for rel, ks in self.files.items() for k in ks]

    def spec(self, rel: str, kernel: Kernel) -> str:
        return f"{os.path.join(self.root, rel)}::{kernel.name}"

    def write_all(self) -> None:
        for rel in self.files:
            self._write(rel)

    def edit(self, n_kernels: int) -> List[str]:
        """Re-draw ``n_kernels`` seeded in-subset kernels; returns their specs.

        Half of them are hazard kernels, so every edit step asks the
        engine for a similar amount of work.
        """
        pool = [(rel, k) for rel, k in self.kernels() if k.in_subset]
        hazards = [pair for pair in pool if pair[1].hazard]
        others = [pair for pair in pool if not pair[1].hazard]
        half = n_kernels // 2
        chosen = self.rng.sample(hazards, half) + self.rng.sample(others, n_kernels - half)
        touched = set()
        for rel, kernel in chosen:
            kernel.consts = _draw(kernel.family, self.rng)
            touched.add(rel)
        for rel in sorted(touched):
            self._write(rel)
        return [self.spec(rel, k) for rel, k in chosen]

    def _write(self, rel: str) -> None:
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        kernels = self.files[rel]
        if rel.endswith(".py"):
            head = '"""Generated floating-point kernels."""\n\nimport math\n'
        else:
            head = "/* Generated floating-point kernels. */\n\n#include <math.h>\n"
        body = "\n\n".join(k.source() for k in kernels)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + "\n\n" + body)
        # The target cache keys lowered programs by file mtime; give
        # every rewrite a strictly newer one so no edit is missed.
        self._mtime_tick += 1
        stamp = 1_000_000_000 + self._mtime_tick
        os.utime(path, (stamp, stamp))
