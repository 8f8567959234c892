"""Run more cases of the config edge-value fuzz than Tier-1 does.

The cases come from `tests/test_config_fuzz.py`'s generator and checks:
a per-kind base config with 1-4 keys set to edge values of their codec,
run in-process through `main`. Prints how many cases ended in each exit
code, per kind, and every case that broke the exit contract; exits 1 if
any did. The package is imported from this checkout's src/:

    python3 scripts/keyfuzz.py --examples 2000 [--seed 0]
"""

import argparse
import collections
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hypothesis import given, seed, settings  # noqa: E402

from test_config_fuzz import cases, run_case  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=1000, help="number of cases to run")
    parser.add_argument("--seed", type=int, default=0, help="Hypothesis seed")
    args = parser.parse_args(argv)
    tally = collections.Counter()
    broken = []

    @seed(args.seed)
    @settings(max_examples=args.examples, deadline=None, database=None)
    @given(case=cases)
    def one(case):
        kind, keys = case
        with tempfile.TemporaryDirectory() as tmp:
            code, problems = run_case(kind, keys, Path(tmp))
        tally[kind, code] += 1
        if problems:
            broken.append((kind, keys, problems))

    start = time.perf_counter()
    one()
    elapsed = time.perf_counter() - start
    print(f"{sum(tally.values())} cases in {elapsed:.1f} s, seed {args.seed}")
    for kind in sorted({kind for kind, _ in tally}):
        counts = ", ".join(f"exit {code}: {n}" for (k, code), n in sorted(tally.items(), key=str) if k == kind)
        print(f"  {kind}: {counts}")
    for kind, keys, problems in broken:
        print(f"BROKEN {kind} {keys}: {'; '.join(problems)}")
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
