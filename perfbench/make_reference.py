#!/usr/bin/env python3
"""Regenerate ``reference.json``, the stored results the correctness gate
compares against.

    python3 perfbench/make_reference.py

For every workload it runs each input of the default and held-out seeds
twice, requires every check to pass and both reports to be identical, and
stores the report digest (without ``timing``), the check verdicts and the
ratios.  Run it only at a commit whose results are trusted: the gate then
holds every later commit to them.
"""

import json
import sys

from run import DEFAULT_SEED, HOLDOUT_SEED, REFERENCE, SRC, apply_thread_settings


def main() -> int:
    apply_thread_settings()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, input_seeds

    reference = {}
    for workload in WORKLOADS.values():
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            for s in input_seeds(seed):
                first, second = workload.run_pass(s), workload.run_pass(s)
                if first.error or not first.checks_pass or first.digest != second.digest:
                    print(f"{workload.name} input {s}: not a trustworthy reference "
                          f"({first.error or first.checks})", file=sys.stderr)
                    return 1
                reference.setdefault(workload.name, {})[str(s)] = {
                    "digest": first.digest, "checks": first.checks, "ratios": first.ratios}
                print(f"{workload.name} input {s}: {len(first.ratios)} ratios, "
                      f"{len(first.checks)} checks", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
