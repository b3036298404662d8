#!/usr/bin/env python3
"""Sample-efficiency experiment: accuracy across training-set sizes.

Generates the default synthetic 5-language / 24-accent embedding dataset,
trains one head per training size on accent-balanced subsets, and reports
test accuracy, certified fraction, and mean certified radius per size.
Results land in --out as CSV/JSON; a summary table prints to stdout.
"""

import argparse
import sys
from pathlib import Path

from cld.cli import main as cld_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/sample_efficiency")
    ap.add_argument("--sizes", default="100,500,1000,10000")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # the log below is opened inside it
    rc = cld_main([
        "bench", "--out", str(out), "--sizes", args.sizes,
        "--seed", str(args.seed), "--log", str(out / "bench.log"),
        "--rho", "100", "--admm-iters", "60", "--stop-tol", "1e-7",
    ])
    if rc != 0:
        return rc

    rows = (out / "accuracy_vs_size.csv").read_text().strip().splitlines()
    print(f"\n{'size':>8} {'n_train':>8} {'accuracy':>10} {'certified':>10} {'mean r':>10}")
    for row in rows[1:]:
        size, n_train, acc, cert, radius = row.split(",")
        print(f"{size:>8} {n_train:>8} {float(acc):>10.4f} {float(cert):>10.4f} "
              f"{float(radius):>10.4f}")
    accs = [float(r.split(",")[2]) for r in rows[1:]]
    print(f"\nspread: {max(accs) - min(accs):.4f} "
          f"(min {min(accs):.4f}, max {max(accs):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
