"""Train the bimodal predictor against the beam-only baseline.

A scaled-down run (about a minute): simulate, build the dataset, train
both modes briefly, and compare validation metrics.  The full desk-scale
comparison lives in configs/desk.ini via `beamsight run-experiment`.
"""

import numpy as np

from beamsight import ScenarioConfig, TrainConfig, build_world, step_world
from beamsight.embedding import BeamEmbeddingTable, encode_dataset
from beamsight.metrics import report
from beamsight.pipeline import balance_and_split, build_seed, collect_windows
from beamsight.predictor import GruPredictor, train_model

cfg = ScenarioConfig(cars=20, buses=5, trucks=1, min_speed=4, max_speed=8,
                     side_yaw_deg=60, hfov_deg=85, vfov_deg=50, seed=1)
frames = 600
worlds = [build_world(cfg)]
for _ in range(frames - 1):
    worlds.append(step_world(worlds[-1], cfg.dt))
windows = collect_windows(build_seed(worlds, cfg))
train, val = balance_and_split(windows, quota=150, seed=7)
print(f"dataset: {len(train)} train / {len(val)} val samples")

table = BeamEmbeddingTable(cfg.beams, 256, seed=11)
for mode, seed in (("bimodal", 3), ("beam-only", 4)):
    tx, ty = encode_dataset(train, table, mode)
    vx, vy = encode_dataset(val, table, mode)
    result = train_model(tx, ty, vx, vy, TrainConfig(epochs=20, seed=seed))
    model = GruPredictor(input_dim=256, hidden=64, params=result.params)
    rep, cm = report(model.predict(vx), val)
    print(f"\n{mode} ({tx.index.shape[1]} recurrent steps):")
    print(f"    val top-1 {rep.top1:.3f}  precision "
          f"{'n/a' if rep.precision is None else f'{rep.precision:.3f}'}  "
          f"recall {'n/a' if rep.recall is None else f'{rep.recall:.3f}'}")
    print(f"    confusion: tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}")
    inst = {k: ('n/a' if v is None else f'{v:.2f}') for k, v in rep.per_instance.items()}
    print(f"    pivotal accuracy by blockage instance: {inst}")
