"""Proactive handoff between the two basestations.

The central unit hands a user off exactly when the serving link is
predicted blocked while the alternative is predicted clear.  This demo
shows the decision table, then evaluates trained predictors on conjugate
sequences (same user and time, opposite future statuses).

Conjugate sequences live at the cell edge, the hardest slice of the
data, so absolute accuracies at this demo's scale are weak and noisy;
the desk-scale experiment (configs/desk.ini) is the meaningful
comparison.  The joint-correct lower bound holds at any scale.
"""

from beamsight import ScenarioConfig, TrainConfig, build_world, step_world
from beamsight.embedding import BeamEmbeddingTable, encode_dataset
from beamsight.handoff import decide, score_handoff
from beamsight.pipeline import (
    balance_and_split,
    build_seed,
    collect_windows,
    concat,
    conjugate_pairs,
)
from beamsight.predictor import GruPredictor, train_model

print("decision rule (predicted serving, predicted other) -> handoff?")
for serving in (0, 1):
    for other in (0, 1):
        print(f"    ({serving}, {other}) -> {decide(serving, other)}")

cfg = ScenarioConfig(cars=20, buses=5, trucks=1, min_speed=4, max_speed=8,
                     side_yaw_deg=60, hfov_deg=85, vfov_deg=50, seed=1)
frames = 900
worlds = [build_world(cfg)]
for _ in range(frames - 1):
    worlds.append(step_world(worlds[-1], cfg.dt))
windows = collect_windows(build_seed(worlds, cfg))
train, val = balance_and_split(concat([windows[1], windows[2]]), quota=220, seed=7)
bs1, bs2, category = conjugate_pairs(windows[1], windows[2], exclude_keys=set(train.keys()))
print(f"\nconjugate pairs held out from training: {len(category)}")

table = BeamEmbeddingTable(cfg.beams, 256, seed=11)
for mode, seed in (("bimodal", 3), ("beam-only", 4)):
    tx, ty = encode_dataset(train, table, mode)
    vx, vy = encode_dataset(val, table, mode)
    result = train_model(tx, ty, vx, vy, TrainConfig(epochs=25, seed=seed))
    model = GruPredictor(input_dim=256, hidden=64, params=result.params)
    # each side's windows scored independently, as the two basestations would
    rep = score_handoff(model.predict(encode_dataset(bs1, table, mode)[0]),
                        model.predict(encode_dataset(bs2, table, mode)[0]),
                        bs1.label, bs2.label, category)

    def show(v):
        return "n/a" if v is None else f"{v:.3f}"

    print(f"\n{mode}:")
    print(f"    handoff accuracy 1->2 {show(rep.category1_accuracy)} "
          f"({rep.category1_count} pairs), 2->1 {show(rep.category2_accuracy)} "
          f"({rep.category2_count} pairs)")
    print(f"    per-bs NLOS/LOS accuracy: bs1 {show(rep.bs_nlos_accuracy[1])}/"
          f"{show(rep.bs_los_accuracy[1])}, bs2 {show(rep.bs_nlos_accuracy[2])}/"
          f"{show(rep.bs_los_accuracy[2])}")
    print(f"    joint-correct fraction {show(rep.joint_correct_fraction)} "
          f"(lower-bounds the overall accuracy {show(rep.overall_accuracy)})")
