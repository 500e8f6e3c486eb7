"""Regenerate the stored golden outputs under perfbench/golden/ from the
current sources.  Run from the root of a checkout:

    python3 perfbench/make_golden.py [mc_table mc_long cli_test limits]

Only do this when a change is meant to alter the outputs, and say so.
"""

import json
import sys

from workloads import POOL, SRC, WORKLOADS, make

sys.path.insert(0, str(SRC))


def golden_monte_carlo(workload, seeds=POOL) -> None:
    for seed in seeds:
        path = workload.golden_path(seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(workload.table_csv(seed, workers=1).encode("utf-8"))


def golden_cli(workload, seeds=POOL) -> None:
    doc = {}
    for seed in seeds:
        clean, bad, bad_row = workload.write_inputs(seed)
        proc, _ = workload.invoke(clean)
        if proc.returncode != 0:
            raise RuntimeError(f"meanbreak test failed on {clean}: {proc.stderr}")
        out = json.loads(proc.stdout)
        doc[str(seed)] = {"json": {k: out[k] for k in workload.FIELDS}, "bad_row": bad_row}
        clean.unlink()
        bad.unlink()
    workload.golden_dir.mkdir(parents=True, exist_ok=True)
    (workload.golden_dir / "cli_test.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def golden_limits(workload) -> None:
    values = workload.evaluate(workload.variance_queries())
    workload.golden_dir.mkdir(parents=True, exist_ok=True)
    (workload.golden_dir / "limits.json").write_text(
        json.dumps({"variance": values}, indent=1) + "\n", encoding="utf-8"
    )


def write_golden(workload, seeds=POOL) -> None:
    if workload.name == "cli_test":
        golden_cli(workload, seeds)
    elif workload.name == "limits":
        golden_limits(workload)
    else:
        golden_monte_carlo(workload, seeds)


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        write_golden(make(name))
        print(f"wrote golden outputs for {name}")
