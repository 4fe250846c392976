"""A fixed task that gauges how fast the machine runs right now; fmtree is not used.

    python3 perfbench/calibrate.py

`run.py` runs it as a cold process after every timed CLI call and scales the
measured times by it (see README.md, "Machine-speed scaling").  It does what
the fmtree CLI spends its time on, in about the same mix, with fixed inputs:
a cold import of numpy and scipy.stats, numpy calls on small arrays from a
Python loop (Treeboost's split search), whole-array numpy work on 20000 rows
(fuzzy c-means) and CSV parsing.  Nothing in it depends on the repository's
code, so a change to fmtree never changes its time.  It prints a checksum.
"""

import csv
import io

import numpy as np
import scipy.stats  # noqa: F401  (imported, as fmtree's CLI imports it, for its cost)


def small_arrays(rng: np.random.Generator) -> float:
    x = rng.uniform(0.0, 1.0, (64, 3))
    r = rng.normal(0.0, 1.0, 64)
    total = 0.0
    for i in range(3000):
        order = np.argsort(x[:, i % 3], kind="stable")
        c = np.cumsum(r[order])
        total += float(np.median(c)) + float(np.argmax(c))
    return total


def whole_arrays(rng: np.random.Generator) -> float:
    x = rng.uniform(0.0, 1.0, (20000, 3))
    centres = x[:4].copy()
    for _ in range(25):
        d2 = ((x[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2) + 1e-12
        u = 1.0 / (d2 * (1.0 / d2).sum(axis=1, keepdims=True))
        w = u * u
        centres = (w.T @ x) / w.sum(axis=0)[:, None]
    return float(centres.sum())


def parse_csv(rng: np.random.Generator) -> float:
    values = rng.uniform(0.0, 400.0, (8000, 4))
    text = "a,b,c,d\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return sum(float(row[0]) + float(row[3]) for row in rows)


def main() -> None:
    rng = np.random.default_rng(7)
    print(repr(small_arrays(rng) + whole_arrays(rng) + parse_csv(rng)))


if __name__ == "__main__":
    main()
