"""From a simulated trace to balanced observed-sequence datasets.

Runs a short simulation, builds the seed rows (one per basestation, owned
user and frame), windows each ownership run of rows into (8 observed,
5 future) samples, and balances per camera.  Prints the label bookkeeping
the later stages rely on.
"""

import numpy as np

from beamsight import ScenarioConfig, build_world, step_world
from beamsight.pipeline import (
    balance_and_split,
    build_seed,
    collect_windows,
    conjugate_pairs,
    sample_to_record,
)

cfg = ScenarioConfig(cars=12, buses=3, trucks=1, min_speed=4, max_speed=8,
                     side_yaw_deg=60, hfov_deg=85, vfov_deg=50, seed=4)
frames = 250
worlds = [build_world(cfg)]
for _ in range(frames - 1):
    worlds.append(step_world(worlds[-1], cfg.dt))

seed = build_seed(worlds, cfg)
runs = np.bincount(seed.stream_ids())
print(f"{frames} frames -> {len(seed)} seed rows in {len(runs)} ownership runs "
      f"(longest {runs.max()} frames)")

windows = collect_windows(seed)
for bs_id in (1, 2):
    pivotal = sum(s.label.status for s in windows[bs_id])
    print(f"bs{bs_id}: {len(windows[bs_id])} windows, {pivotal} pivotal "
          f"({pivotal / max(len(windows[bs_id]), 1):.1%})")

train, val = balance_and_split(windows[1] + windows[2], quota=40, seed=7)
hist = {}
for s in train.samples + val.samples:
    key = (s.sequence.camera_id, s.label.status)
    hist[key] = hist.get(key, 0) + 1
print("\nbalanced counts per (camera, label):")
for key in sorted(hist):
    print(f"    camera {key[0]} label {key[1]}: {hist[key]}")

pairs = conjugate_pairs(windows[1], windows[2],
                        exclude_keys={s.key for s in train.samples})
print(f"\nconjugate pairs on the overlap cameras: {len(pairs)} "
      f"(category 1: {sum(p.category == 1 for p in pairs)}, "
      f"category 2: {sum(p.category == 2 for p in pairs)})")

sample = next(s for s in val.samples if s.label.status == 1)
record = sample_to_record(sample)
print(f"\none pivotal sample (camera {record['camera']}, user {record['user']}, "
      f"t_end {record['t_end']}):")
print(f"    beams    {record['beams']}")
print(f"    window   {record['window']} -> label {record['label']}, "
      f"blockage instance {record['instance']}")
print(f"    detections in last observed frame: {len(sample.sequence.detections[-1])}")
