#!/usr/bin/env python3
"""Generate a random-instance benchmark manifest and run the full sweep.

Writes k random integer instances to a scratch directory, builds a
manifest of them plus the bundled chr12a (whose best-known value the CLI
reads from the package's table) pitting both splitting decompositions
against the Frank-Wolfe baseline, runs it through the CLI, and prints
the pairwise win/tie/loss tally.
"""

import argparse
import contextlib
import importlib.resources
import json
import os

import numpy as np

from tosqap import make_rng
from tosqap.cli import main as cli_main
from tosqap.linalg import check_int, check_real


def write_random_instance(path, n, seed):
    rng = make_rng(seed)
    a = rng.integers(0, 100, (n, n))
    b = rng.integers(0, 100, (n, n))
    np.savetxt(path, np.vstack([a, b]), fmt="%d", header=str(n), comments="")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="bench_runs", help="output directory")
    ap.add_argument("--instances", type=int, default=4, help="random instances to generate")
    ap.add_argument("--size", type=int, default=8, help="dimension of random instances")
    ap.add_argument("--iters", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-5)
    args = ap.parse_args()
    try:
        for name, least in (("instances", 0), ("size", 1), ("iters", 1), ("seed", 0)):
            check_int(getattr(args, name), f"--{name}", least)
        check_real(args.tol, "--tol", least=0)
    except ValueError as exc:
        ap.error(str(exc))

    os.makedirs(args.out, exist_ok=True)
    chr12a = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
    entries = [{"path": str(chr12a)}]
    for k in range(args.instances):
        path = os.path.join(args.out, f"rand{args.size}_{k}.dat")
        write_random_instance(path, args.size, args.seed * 1000 + k)
        entries.append({"path": path})

    manifest = {
        "instances": entries,
        "solvers": ["tos-split1", "tos-split2", "fw"],
        "config": {"iters": args.iters, "seed": args.seed,
                   "step": "invL", "tol": args.tol},
        "out_dir": args.out,
    }
    manifest_path = os.path.join(args.out, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2)

    # The tally is read only from a summary this run wrote, so a run that
    # fails before its sweep prints none.
    summary_path = os.path.join(args.out, "bench_summary.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary_path)
    rc = cli_main(["bench", manifest_path])
    if not os.path.exists(summary_path):
        return rc
    with open(summary_path) as f:
        tally = json.load(f)["tally"]
    print("\npairwise win/tie/loss on rounded objective value:")
    for pair, t in sorted(tally.items()):
        print(f"  {pair}: {t['win']}/{t['tie']}/{t['loss']}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
