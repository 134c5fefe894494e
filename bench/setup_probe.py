"""Set-up of one fresh process, up to the point where it could run an op.

Imports uwocnet, parses the workload's config, builds the topology and
validates the slot schedule, then prints "ready".

    python3 bench/setup_probe.py bench/inputs/anchor.cfg
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uwocnet import config, node  # noqa: E402

cfg = config.parse_config(Path(sys.argv[1]).read_text())
topology = cfg.topology()
node.schedule(topology.node_ids, cfg.slot_duration(), 0, cfg.bit_rate)
print("ready", flush=True)
