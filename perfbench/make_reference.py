"""Write perfbench/reference.json: the outputs of each workload's default-seed
reference inputs, which every benchmark run compares its own outputs with.

    python3 perfbench/make_reference.py

Regenerate it only when a change to the library is meant to change outputs.
"""

import json
import os
import shutil
import sys

import run

run.bootstrap()
import workloads  # noqa: E402  (needs the bootstrapped sys.path)


def main() -> None:
    workdir = run.OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        stored = {
            name: workloads.reference_outputs(factory(run.ROOT, workloads.DEFAULT_SEED, workdir))
            for name, factory in workloads.WORKLOADS.items()
        }
    finally:
        shutil.rmtree(workdir)
    with open(workloads.reference_path(), "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.reference_path()}", file=sys.stderr)


if __name__ == "__main__":
    main()
