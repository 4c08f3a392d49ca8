"""Success ledger of `embed`: this checkout against another one.

    python tests/embed_ledger.py --base DIR

Runs two sets on both `src/` trees, each tree in a process of its own:

- the exactness grid's layouts (tests/test_embed_exactness.py) at seeds 4-15,
  1080 `embed` calls on small hosts;
- the 38 k = 3 `power_cycle:2` pipeline configurations of `K3_CFG`:
  n in {960, 1500} at seeds 0-7 and n = 3000 at seeds 0-2, each at
  gamma in {0.1, 0.15}.

Prints each set's success count and summed `embed` retries per tree, and
every changed outcome: a grid case's (outcome, retries or message), a
pipeline run's CSV row without `runtime_ms`.  A change is a gain (a failure
turned into a success), fewer retries, or a loss (anything else).  Exits 1
if any change is a loss.  The pipeline set takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

GRID_SEEDS = range(4, 16)
K3_RUNS = [(n, seed) for n in (960, 1500) for seed in range(8)] + [(3000, seed) for seed in range(3)]
K3_GAMMAS = (0.1, 0.15)


def grid_cases():
    from test_embed_exactness import LAYOUTS

    return [
        (layout, n, p, vartheta, seed)
        for layout in LAYOUTS
        for n in (40, 80, 160)
        for p in (0.2, 0.3, 0.4, 0.5, 0.7)
        for vartheta in (0.1, 0.2, 0.3)
        for seed in GRID_SEEDS
    ]


def worker() -> None:
    """Print one JSON line per run of both sets, with the `spanembed` first on
    sys.path: [set, case, success, outcome]."""
    from spanembed.embedder import EmbedError, choose_buffers, embed
    from spanembed.graph_core import gnp
    from spanembed.harness import ExperimentConfig, csv_row, run_pipeline
    from spanembed.pre_embedding import RestrictionPair

    from helpers import fold_labelling
    from test_embed_exactness import K3_CFG, LAYOUTS

    for case in grid_cases():
        layout, n, p, vartheta, seed = case
        guest, f_star, clusters = LAYOUTS[layout](n)
        order = fold_labelling(n)
        buffers = choose_buffers(guest, f_star, (1 << n) - 1, sorted(clusters), vartheta, order=order)
        try:
            res = embed(gnp(n, p, seed), guest, clusters, f_star, RestrictionPair(), buffers, order, seed=seed)
            out = [True, f"ok, {res.retries} retries"]
        except EmbedError as err:
            out = [False, f"error: {err} (stuck {err.stuck})"]
        print(json.dumps(["grid", list(case)] + out), flush=True)
    for gamma in K3_GAMMAS:
        for n, seed in K3_RUNS:
            rec = run_pipeline(ExperimentConfig(**dict(K3_CFG, n=n, gamma=gamma, seed=seed)))
            row = csv_row(rec).rsplit(",", 1)[0]
            print(json.dumps(["k3", [n, gamma, seed], rec.success, row]), flush=True)


def start(src: Path) -> subprocess.Popen:
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(TESTS)!r}]; "
        "import embed_ledger; embed_ledger.worker()"
    )
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout whose src/ is the base side")
    args = ap.parse_args(argv)
    base_src = args.base.resolve() / "src"
    if not (base_src / "spanembed" / "__init__.py").is_file():
        print(f"error: no spanembed sources under {base_src}", file=sys.stderr)
        return 2
    procs = {"base": start(base_src), "new": start(ROOT / "src")}
    runs = {}
    for side, proc in procs.items():
        out, _ = proc.communicate()
        if proc.returncode:
            print(f"error: the {side} worker exited with {proc.returncode}", file=sys.stderr)
            return 2
        runs[side] = [json.loads(line) for line in out.splitlines()]

    losses = 0
    for name, label in (("grid", "grid, seeds 4-15"), ("k3", "k = 3 power_cycle:2")):
        base = [r for r in runs["base"] if r[0] == name]
        new = [r for r in runs["new"] if r[0] == name]
        print(
            f"{label}: {len(base)} runs, successes base {sum(r[2] for r in base)}, new {sum(r[2] for r in new)}; "
            f"retries base {sum(retries(name, r[3]) for r in base)}, new {sum(retries(name, r[3]) for r in new)}"
        )
        for b, n in zip(base, new):
            if b[3] == n[3]:
                continue
            if n[2] and not b[2]:
                kind = "gain"
            elif b[2] and n[2] and fewer_retries(name, b[3], n[3]):
                kind = "fewer retries"
            else:
                kind = "LOSS"
                losses += 1
            print(f"  {kind}: {b[1]}: {b[3]}  ->  {n[3]}")
    print(f"losses: {losses}")
    return 1 if losses else 0


def retries(name: str, outcome: str) -> int:
    """The retries an outcome records: the last field of a CSV row (its
    `embed_retries`), R in a grid outcome `ok, R retries`, 0 for a grid error."""
    if name == "k3":
        return int(outcome.rsplit(",", 1)[1])
    return int(outcome.split()[1]) if outcome.startswith("ok") else 0


def fewer_retries(name: str, base: str, new: str) -> bool:
    """Whether two successful outcomes differ only by fewer retries on the new side."""
    if name == "k3" and base.rsplit(",", 1)[0] != new.rsplit(",", 1)[0]:
        return False
    return retries(name, new) < retries(name, base)


if __name__ == "__main__":
    sys.exit(main())
