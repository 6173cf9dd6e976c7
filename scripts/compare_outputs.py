"""Check that two source trees give the same CLI outputs.

    python3 scripts/compare_outputs.py --parent PATH [--change PATH]

Runs the same configs through ``heatfield.cli`` of each tree (``PATH/src``
on ``PYTHONPATH``, one subprocess per run) and requires, for every run,
the same CSV sha256 and the same value for every manifest ``estimates``
key the parent writes (the change may add keys).  The configs are the
benchmark's extinction runs (alpha 0.25, horizon 60, 200 replicas,
cap 10k, eight seeds) plus other laws and caps, ``gf`` runs, the
benchmark's ``clock`` runs (gamma 2, dtau.max 3, 2000 replicas, seeds 0,
5, 2**31 - 1 and 40,000) and ``kernel`` runs in d = 1, 2 and 3.  ``--change`` defaults to the tree
holding this script.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXTINCTION = {"alpha": 0.25, "gamma": 1.0, "horizon": 60.0, "replicas": 200, "max.particles": 10_000}
RUNS = (
    [("extinction", dict(EXTINCTION, seed=seed)) for seed in (1, 7, 931, 123456, 2**31 - 1, 55, 808, 40_000)]
    + [
        ("extinction", dict(EXTINCTION, alpha=alpha, seed=3, **extra))
        for alpha, extra in ((0.1, {}), (0.4, {}), (0.49, {"max.particles": 2000, "horizon": 20.0}),
                             (0.0, {"horizon": 5.0}), (0.5, {"horizon": 5.0}), (1.0, {}),
                             (0.25, {"max.particles": 40}))
    ]
    + [("gf", {"alpha": 0.25, "gamma": 1.0, "theta": theta, "t.max": 1.0, "replicas": 150, "seed": seed})
       for theta, seed in ((0.5, 11), (0.0, 12), (0.9, 13))]
    + [("clock", {"gamma": 2.0, "dtau.max": 3.0, "replicas": 2000, "seed": seed}) for seed in (0, 5, 2**31 - 1, 40_000)]
    + [("kernel", {"gamma": 0.3, "d": d, "t.min": 0.05, "t.max": 3.0, "t.count": 40, "r.max": 6.0, "r.count": 60})
       for d in (1, 2, 3)]
)


def run(tree: str, kind: str, params: dict, workdir: str):
    cfg, csv = os.path.join(workdir, "run.cfg"), os.path.join(workdir, "run.csv")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in params.items())
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, "-m", "heatfield.cli", kind, "--config", cfg, "--out", csv], env=env, check=True)
    with open(csv + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return manifest["csv_sha256"], manifest["estimates"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", default=HERE, help="source tree of the change (default: this one)")
    args = parser.parse_args(argv)
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        for kind, params in RUNS:
            old_sha, old_est = run(args.parent, kind, params, workdir)
            new_sha, new_est = run(args.change, kind, params, workdir)
            same = old_sha == new_sha and all(new_est.get(key) == value for key, value in old_est.items())
            added = {key: new_est[key] for key in new_est.keys() - old_est.keys()}
            failures += not same
            print(f"{'same' if same else 'DIFFERENT'}  {kind} {params}  sha256 {new_sha[:12]}  added {added}")
    print(f"{len(RUNS) - failures} of {len(RUNS)} runs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
