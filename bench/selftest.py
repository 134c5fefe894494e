"""Show that the output checks count a tampered op as failed.

    python3 bench/selftest.py

For each workload, runs op 0 of the default seed as recorded, then runs it
again with one count of its result tampered with.  Passes (exit 0) when
every untampered op passes its checks and every tampered one fails them.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import run


def _bump_delivered(reports):
    hop = reports[1].hops[2]
    reports[1].hops[2] = replace(hop, packets_delivered=hop.packets_delivered + 1)
    return reports


def _drop_monitor_row(result):
    code, stdout, path = result
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return result


def _shift_noise(params):
    return replace(params, noise_sigma=params.noise_sigma * 1.5)


def _drop_attempt(report):
    hop = report.hops[0]
    report.hops[0] = replace(hop, packets_attempted=hop.packets_attempted - 1)
    return report


TAMPERS = {
    "anchor_sweep": ("hop 2 delivered + 1 at 70 NTU", _bump_delivered),
    "monitor_log": ("last monitor row removed", _drop_monitor_row),
    "calibrate_anchors": ("fitted noise_sigma x 1.5", _shift_noise),
    "hetero_workers2": ("hop 0 attempted - 1", _drop_attempt),
}


def main() -> int:
    run.import_package()
    from workloads import WORKLOADS

    digests = json.loads((run.BENCH / "digests.json").read_text())
    seed = digests["seed"]
    ok = True
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name, (what, tamper) in TAMPERS.items():
            wl = WORKLOADS[name](Path(workdir))
            wl.setup()
            bench = run.Run(wl, seed, digests)
            bench.op(seed, 0)
            clean_failed = bench.failed
            untampered = wl.run
            wl.run = lambda inp: tamper(untampered(inp))
            bench.op(seed, 0)
            caught = bench.failed - clean_failed == 1
            ok = ok and clean_failed == 0 and caught
            print(
                f"{name}: untampered op {'failed' if clean_failed else 'passed'}; "
                f"tampered ({what}) {'failed' if caught else 'PASSED'}; "
                f"failed_op_ratio {bench.failed / bench.attempted:g}"
            )
            for problem in bench.problems:
                print(f"    {problem}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
