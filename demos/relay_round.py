"""
One relay round, step by step
=============================

Drives a five-node line through a single error-free round using the node
state machines directly, printing every slot, transmission, and the frame
the sink hands to the monitor.
"""

from uwocnet import (
    BytesArrived,
    DeliverToMonitor,
    SensorProfile,
    SlotEnd,
    SlotStart,
    TransmitBytes,
    linear_topology,
    schedule,
    step,
)

profile = SensorProfile(baseline_c=20.0, amplitude_c=1.5, period_s=3600.0,
                        noise_std_c=0.05, seed=7)
topology = linear_topology(range(5))
states = topology.node_states(profile)

slot_s = 0.05
print("slot schedule for round 0:")
for slot in schedule(topology.node_ids, slot_s, 0):
    print(f"  [{slot.start:5.2f}, {slot.end:5.2f}) node {slot.node_id} {slot.kind}")

print("\nframe growth across the line (perfect water):")
for hop in range(topology.hop_count):
    start, end = hop * slot_s, (hop + 1) * slot_s
    states[hop], actions = step(states[hop], SlotStart("tx", start))
    (tx,) = [a for a in actions if isinstance(a, TransmitBytes)]
    states[hop], _ = step(states[hop], SlotEnd(end))
    print(f"  hop {hop}: node {hop} -> node {hop + 1}, "
          f"{len(tx.data)} bytes: {tx.data.hex(' ')}")

    states[hop + 1], _ = step(states[hop + 1], SlotStart("rx", start))
    states[hop + 1], _ = step(states[hop + 1], BytesArrived(tx.data, start))
    states[hop + 1], actions = step(states[hop + 1], SlotEnd(end))
    for act in actions:
        if isinstance(act, DeliverToMonitor):
            print(f"\nsink delivered at t={act.time:.2f}s:")
            print(f"  key chain: {act.frame.key_chain}")
            for rec in act.frame.records:
                print(f"  node {rec.node_id}: {rec.temperature_c:.4f} degC")
