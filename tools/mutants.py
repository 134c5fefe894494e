"""Mutation table for tier-1: which planted faults does the suite catch?

A mutant is one exact text edit of one source file.  For each mutant the
repository is copied (without .git, caches and BENCH_*.json) to a temporary
directory, the edit is applied there, and tier-1 runs on the copy; the
working tree is never written.  Each mutant prints one row:

    killed     tier-1 failed; the row gives the failing count and first ids
    timeout    tier-1 ran longer than TIMEOUT_FACTOR unmutated runs: not killed
    survived   tier-1 passed: a fault the suite does not catch
    stale      the old text does not occur exactly once: update the mutant

The last line is the kill matrix: one JSON object that maps each mutant to
the sorted ids of every test that failed on it, an empty list for a mutant
not killed.  A test whose kill set lies inside another's may fold into it
only if the matrix after the fold still shows each of its mutants killed.

First the unmutated copy runs: it must pass, and its suite must import
uwocnet from the copy's own src/, not from an installed package.  Its
duration sets the timeout.  The exit status is 1 if the unmutated copy
fails, or if any mutant timed out, survived or is stale.

Usage (standard library only):

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named mutants
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_FACTOR = 5  # a mutant's tier-1 may take this many unmutated runs
SHOWN_IDS = 3  # failing test ids printed per killed mutant
# tests/test_mutants.py checks every old text against the tree, so in a
# mutated copy it fails whatever the mutant does; the table runs without it.
STALENESS_TEST = "tests/test_mutants.py"

SIM = "src/uwocnet/sim.py"
NODE = "src/uwocnet/node.py"
FRAME = "src/uwocnet/frame.py"
CHANNEL = "src/uwocnet/channel.py"
CONFIG = "src/uwocnet/config.py"
RNG = "src/uwocnet/rng.py"
CLI = "src/uwocnet/cli.py"

# (name, file, exact old text, new text, PR that introduced the mutant)
MUTANTS = [
    ("no_canary", SIM,
     "if head != canary:", "if False:", 3),
    ("no_range_check", SIM,
     "if bad.any():", "if False:", 3),
    ("no_tie_recompute", NODE,
     "    redo |= np.abs(x - raw) > 0.5 - _TIE_MARGIN\n", "", 3),
    ("calibrate_on_last_frame_length", CHANNEL,
     "sum(hop_lengths)", "hop_lengths[-1]", 4),
    ("receiver_fed_last_drawn_bytes", SIM,
     "nd.BytesArrived(intact, start)", "nd.BytesArrived(rx_data, start)", 19),
    ("first_threshold_table_for_all", SIM,
     "for line in bers.tolist()", "for line in bers[:1].tolist()", 20),
    ("unmasked_seed_array", SIM,
     "np.array([seed_word(s) for _, s in runs], dtype=np.uint64)",
     "np.array([s for _, s in runs], dtype=np.uint64)", 20),
    ("chunks_of_1023_bits_in_sim", SIM,
     "_BLOCK_CELLS = 1 << 16\n", "_BLOCK_CELLS = 1 << 16\nBINOMIAL_CHUNK = 1023\n", 21),
    ("sine_form_full_angle", NODE,
     "t = np.tan(0.5 * x)\n    return 2.0 * t", "t = np.tan(x)\n    return 2.0 * t", 22),
    ("cosine_form_sign", NODE,
     "return (1.0 - t) / (1.0 + t)", "return (t - 1.0) / (1.0 + t)", 22),
    ("row_loop_from_hop_2", FRAME,
     "for j in range(1, len(hop)):", "for j in range(2, len(hop)):", 22),
    ("overhead_on_hop_0_only", FRAME,
     "lengths += FRAME_OVERHEAD", "hop[0] += FRAME_OVERHEAD", 22),
    ("rows_of_lengths", FRAME,
     "hop = lengths.T", "hop = lengths", 22),
    ("canary_slice_empty", SIM,
     "_log_columns(rows, bisect_right(rows[0], lo))", "_log_columns(rows, 0)", 24),
    ("canary_slice_one_row", SIM,
     "_log_columns(rows, bisect_right(rows[0], lo))", "_log_columns(rows, 1)", 24),
    ("lengths_without_escapes", FRAME,
     "_VALUE_COST[raw & 0xFFFF]", "0 * raw", 25),
    ("liveness_from_current_hop", SIM,
     "ok[..., h - 1], out=live[..., h]", "ok[..., h], out=live[..., h]", 25),
    ("liveness_loop_from_hop_2", SIM,
     "for h in range(1, len(hop)):", "for h in range(2, len(hop)):", 25),
    ("sink_time_late", SIM,
     "times = clocks[done, -1]", "times = clocks[done, -1] + 1e-9", 25),
    ("distance_under_nodes", CONFIG,
     '_checked("topology.link_distances"', '_checked("topology.nodes"', 28),
    ("turbid_line_accepted", CONFIG,
     "if any(link.turbidity_ntu for link in self.line.links):", "if False:", 28),
    ("attempted_from_next_hop", SIM,
     "[rounds, *delivered[:-1]]", "[rounds, *delivered[1:]]", 29),
    ("engine_slot_unchecked", SIM,
     "nd.checked_slot(len(line.node_ids), slot_duration, bit_rate)",
     'nd.as_float(slot_duration, "slot_duration")', 30),
    ("slot_fit_unchecked", NODE,
     "if needed > slot:", "if False:", 30),
    ("float_fast_path_unchecked", RNG,
     "if type(value) is float and math.isfinite(value):", "if type(value) is float:", 30),
    # the stuffing alone forgets 0x7D: the cost table and fault pattern keep it
    ("stuffing_without_escape_byte", FRAME,
     "b ^ ESCAPE_XOR))) for b in _RESERVED)", "b ^ ESCAPE_XOR))) for b in _RESERVED[1:])", 30),
    ("identity_unchecked", NODE,
     "if type(self.identity) is not NodeIdentity:", "if False:", 32),
    # LinkSpec has the same turbidity lines: the distance check next to
    # them makes the old text CalibrationTarget's alone
    ("target_turbidity_unchecked", CHANNEL,
     "if self.turbidity_ntu < 0:\n            raise ValueError(\"turbidity_ntu must be >= 0\")\n"
     "        if self.total_distance_m <= 0:",
     "if False:\n            raise ValueError(\"turbidity_ntu must be >= 0\")\n"
     "        if self.total_distance_m <= 0:", 32),
    ("target_distance_unchecked", CHANNEL,
     "if self.total_distance_m <= 0:", "if False:", 32),
    ("range_test_on_dead_cells", SIM,
     "(sent > 0)", "(sent >= 0)", 33),
    ("frame_records_unchecked", FRAME,
     "if not all(type(rec) is SensorRecord for rec in self.records):", "if False:", 34),
    ("escape_pair_names_escape_byte", FRAME,
     "0x7D 0x{after[0]:02X}", "0x7D 0x{fault[0]:02X}", 34),
    # one text per relayed value, not per bit pattern: -0.0 and 0.0 merge
    ("render_table_keyed_on_value", CLI,
     "np.unique(relayed.view(np.int64), return_inverse=True)",
     "np.unique(relayed, return_inverse=True)", 35),
    ("fit_overflow_unchecked", CHANNEL,
     'if best_err == math.inf or not 0.0 < fitted.get("noise_sigma", 1.0) < math.inf:',
     "if False:", 37),
]

# pytest in-process, then the file the suite imported uwocnet from
_RUN = (
    "import sys, pytest\n"
    "status = pytest.main(sys.argv[1:])\n"
    "print(getattr(sys.modules.get('uwocnet'), '__file__', None))\n"
    "sys.exit(status)\n"
)


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".bench_out", "BENCH_*.json"
    )
    shutil.copytree(ROOT, tree, ignore=ignore)
    return tree


def tier1(tree: Path, timeout: float | None):
    """Run tier-1 in tree: (exit status, or None on timeout; failing test
    ids; seconds; the file uwocnet was imported from)."""
    report = tree.parent / "tier1.xml"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, "-c", _RUN, "-q", "--tb=no", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", f"--junitxml={report}",
        f"--ignore={STALENESS_TEST}",
    ]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, [], time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    failing = []
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                failing.append(f"{case.get('classname')}::{case.get('name')}")
    lines = done.stdout.splitlines()
    return done.returncode, failing, seconds, lines[-1] if lines else None


def run_mutant(mutant, timeout: float) -> tuple[str, list[str]]:
    """One table row for mutant, and the sorted ids of the tests that killed
    it: none if it was not killed."""
    name, path, old, new, pr = mutant
    row = f"{name:<32} {pr:>3}"
    with tempfile.TemporaryDirectory(prefix="uwocnet-mutant-") as scratch:
        tree = copy_tree(Path(scratch))
        target = tree / path
        text = target.read_text()
        count = text.count(old)
        if count != 1:
            return f"{row}  stale     old text occurs {count} times in {path}", []
        target.write_text(text.replace(old, new))
        status, failing, seconds, _ = tier1(tree, timeout)
    if status is None:
        return f"{row}  timeout        - {seconds:8.1f}  (after {timeout:.0f} s)", []
    if status == 0:
        return f"{row}  survived       0 {seconds:8.1f}", []
    shown = ", ".join(failing[:SHOWN_IDS]) + (", ..." if len(failing) > SHOWN_IDS else "")
    return f"{row}  killed    {len(failing):>5} {seconds:8.1f}  {shown}", sorted(failing)


def main(names: list[str]) -> int:
    known = {m[0]: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        sys.exit(f"unknown mutants {unknown}; known: {', '.join(known)}")
    chosen = [known[n] for n in names] if names else MUTANTS

    with tempfile.TemporaryDirectory(prefix="uwocnet-unmutated-") as scratch:
        tree = copy_tree(Path(scratch))
        status, failing, seconds, imported = tier1(tree, None)
        own = imported is not None and Path(imported).resolve().is_relative_to(
            (tree / "src").resolve()
        )
    if status != 0:
        sys.exit(f"the unmutated copy fails tier-1: {len(failing)} failing, "
                 f"{failing[:SHOWN_IDS]}")
    if not own:
        sys.exit(f"the suite imported uwocnet from {imported}, not the copy's src/; "
                 "uninstall that package or run from its checkout")
    timeout = TIMEOUT_FACTOR * seconds
    print(f"unmutated: tier-1 passed in {seconds:.1f} s; timeout {timeout:.0f} s")
    print(f"{'mutant':<32} {'PR':>3}  result    failing  seconds  first failing tests",
          flush=True)

    matrix = {}
    for mutant in chosen:
        row, matrix[mutant[0]] = run_mutant(mutant, timeout)
        print(row, flush=True)
    killed = sum(map(bool, matrix.values()))
    print(f"{killed} of {len(chosen)} mutants killed")
    print(json.dumps(matrix))
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
