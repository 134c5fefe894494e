"""Record the op digests that run.py checks outputs against.

    python3 bench/record_digests.py

Runs ops 0..N-1 of the default seed of each workload whose outputs are
counts, and rewrites bench/digests.json with the digest of each op's
report counts (or of its CSV, for monitor_log).  Run it only on the engine
whose counts are the reference: afterwards, a change that alters any count
of these ops fails them.
"""

import json
import tempfile
from pathlib import Path

import run

SEED = 1
OPS = {"anchor_sweep": 200, "monitor_log": 200, "hetero_workers2": 60}


def main() -> None:
    run.import_package()
    from workloads import WORKLOADS

    recorded = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name, count in OPS.items():
            wl = WORKLOADS[name](Path(workdir))
            wl.setup()
            digests = []
            for index in range(count):
                inp = wl.make_input(SEED, index)
                outcome = wl.check(inp, wl.run(inp))
                if outcome.problems:
                    raise SystemExit(f"{name} op {index}: {outcome.problems}")
                digests.append(outcome.digest)
            recorded[name] = digests
            print(f"{name}: {count} ops")
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps({"seed": SEED, "ops": recorded}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
