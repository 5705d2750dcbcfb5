"""From a simulated trace to balanced observed-sequence datasets.

Runs a short simulation, builds the seed rows (one per basestation, owned
user and frame), windows each ownership run of rows into a table of
(8 observed, 5 future) windows per basestation, and balances per camera.
Prints the label bookkeeping the later stages rely on.
"""

import numpy as np

from beamsight import ScenarioConfig, build_world, step_world
from beamsight.pipeline import (
    balance_and_split,
    build_seed,
    collect_windows,
    concat,
    conjugate_pairs,
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
    pivotal = int(windows[bs_id].label.sum())
    print(f"bs{bs_id}: {len(windows[bs_id])} windows, {pivotal} pivotal "
          f"({pivotal / max(len(windows[bs_id]), 1):.1%})")

train, val = balance_and_split(concat([windows[1], windows[2]]), quota=40, seed=7)
chosen = concat([train, val])
keys, counts = np.unique(np.stack([chosen.camera, chosen.label]), axis=1, return_counts=True)
print("\nbalanced counts per (camera, label):")
for (camera, label), n in zip(keys.T.tolist(), counts.tolist()):
    print(f"    camera {camera} label {label}: {n}")

bs1, bs2, category = conjugate_pairs(windows[1], windows[2], exclude_keys=set(train.keys()))
print(f"\nconjugate pairs on the overlap cameras: {len(category)} "
      f"(category 1: {sum(category == 1)}, category 2: {sum(category == 2)})")

i = int(val.label.argmax())   # the first pivotal validation window
print(f"\none pivotal sample (camera {val.camera[i]}, user {val.user[i]}, t_end {val.t_end[i]}):")
print(f"    beams    {val.beams[i].tolist()}")
print(f"    window   {val.future[i].tolist()} -> label {val.label[i]}, "
      f"blockage instance {val.instance[i]}")
print(f"    detections in last observed frame: {val.frames.count[val.frame_rows[i, -1]]}")
