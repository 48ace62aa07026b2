"""Write references.json: the output digests every benchmark case must reproduce.

    python3 perfbench/make_references.py            # timed prefixes only
    python3 perfbench/make_references.py --full     # also the whole paper_demo

Run it only when a change is meant to alter telemetry bytes or summaries,
and say so in CHANGES.md; otherwise the stored digests are the check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads as wl


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--full", action="store_true", help="also record the whole paper_demo mission")
    args = p.parse_args(argv)
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8")) if run.REFERENCES.exists() else {}
    work = run.OUT / "references"
    work.mkdir(parents=True, exist_ok=True)
    jobs = [(name, case, False) for name, spec in wl.WORKLOADS.items() for case in range(spec["cases"])]
    if args.full:
        jobs.append(("paper_demo", 0, True))
    try:
        for name, case, full in jobs:
            result = run.run_worker(name, case, work, full=full)
            if result.get("error"):
                print(f"{name} case {case}: {result['error']}", file=sys.stderr)
                return 1
            key = f"{name}_full" if full else name
            refs.setdefault(key, {})[str(case)] = result["digests"]
            print(f"{key} case {case}: {result['digests']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
