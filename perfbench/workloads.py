"""The three workloads: inputs made in set-up, timed stage calls, checks.

Every input is made through the stage functions of ``beamsight.experiment``
on the desk street (``configs/desk.ini``), with the scenario, dataset and
training seeds taken from the workload seed.  A workload's timed part is a
list of operations; each is one stage call writing under its own
directory, so its output can be digested and sized.

The figures must repeat across seeds.  A street's conjugate-pair count
moves by about 35 % from one scenario seed to the next, so ``seed-pass``
and ``replay`` use the desk quota of 300, which makes the quota-capped
splits (about 8 % apart per street) outweigh the pairs, and average over
several streets.  Training cost follows the split sizes, which quota 20
holds at 240 windows, so ``train`` uses one street.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from beamsight import experiment   # looked up at call time, so the tracer sees it
from beamsight.config import load_experiment_config

import checks

MODES = (("bimodal", "bimodal"), ("beam-only", "beam_only"))   # mode, file stem


@dataclass(frozen=True)
class Recipe:
    streets: int         # desk streets, one scenario seed each
    frames: int          # simulated frames per street (desk runs 1200)
    quota: int           # pivotal and non-pivotal windows per camera
    setup_passes: int    # set-up repetitions; setup_s is their median


class Workload:
    recipe: Recipe

    def __init__(self, root: Path, seed: int):
        desk = load_experiment_config(root / "configs" / "desk.ini")
        r = self.recipe
        self.scenarios = [replace(desk.scenario, seed=seed * r.streets + i)
                          for i in range(r.streets)]
        self.dataset_cfg = replace(desk.dataset, quota=r.quota, seed=seed)
        self.train_cfg = desk.train
        self.seed = seed

    def streets(self, base: Path):
        return [base / f"street{i}" for i in range(self.recipe.streets)]

    def setup(self, base: Path) -> None:
        raise NotImplementedError

    def operations(self, inputs: Path) -> list[tuple[str, object]]:
        """(name, call) pairs; ``call(out_dir)`` makes one stage call."""
        raise NotImplementedError

    def check(self, inputs: Path, outputs: Path) -> list[str]:
        raise NotImplementedError

    def _simulate(self, street: Path, scenario) -> None:
        experiment.simulate_stage(scenario, self.recipe.frames, street / "trace")

    def _build(self, street: Path, out: Path) -> None:
        experiment.build_dataset_stage(street / "trace", out, self.dataset_cfg)

    def _train(self, dataset: Path, out: Path, mode: str, stem: str, epochs: int) -> None:
        # beam-only trains with the next seed, as run_experiment does
        cfg = replace(self.train_cfg, epochs=epochs,
                      seed=self.seed + (mode == "beam-only"))
        out.mkdir(parents=True, exist_ok=True)
        experiment.train_stage(dataset, mode, cfg, out / f"{stem}.ckpt",
                               out / f"{stem}_history.csv")


class SeedPass(Workload):
    """Timed: build_dataset_stage on each street's trace."""

    recipe = Recipe(streets=3, frames=100, quota=300, setup_passes=15)

    def setup(self, base):
        for street, scenario in zip(self.streets(base), self.scenarios):
            self._simulate(street, scenario)

    def operations(self, inputs):
        return [(f"build{i}", lambda out, s=street: self._build(s, out))
                for i, street in enumerate(self.streets(inputs))]

    def check(self, inputs, outputs):
        return [p for i, street in enumerate(self.streets(inputs))
                for p in checks.check_dataset(outputs / f"build{i}", street / "trace")]


class Train(Workload):
    """Timed: train_stage for bimodal, then for beam-only."""

    recipe = Recipe(streets=1, frames=200, quota=20, setup_passes=2)
    epochs = 5           # per timed training call

    def setup(self, base):
        street = self.streets(base)[0]
        self._simulate(street, self.scenarios[0])
        self._build(street, street / "dataset")

    def operations(self, inputs):
        dataset = self.streets(inputs)[0] / "dataset"
        return [(stem, lambda out, m=mode, s=stem:
                 self._train(dataset, out, m, s, self.epochs))
                for mode, stem in MODES]

    def check(self, inputs, outputs):
        runs = {mode: (outputs / stem / f"{stem}.ckpt",
                       outputs / stem / f"{stem}_history.csv")
                for mode, stem in MODES}
        return checks.check_training(self.streets(inputs)[0] / "dataset", runs)


class Replay(Workload):
    """Timed, per street: eval_stage for both checkpoints, then handoff_eval
    for both, the calls run_experiment makes after training.  One short
    train_stage per mode, on the first street, makes the checkpoints."""

    recipe = Recipe(streets=2, frames=100, quota=300, setup_passes=1)
    epochs = 1           # per set-up training call

    def setup(self, base):
        streets = self.streets(base)
        for street, scenario in zip(streets, self.scenarios):
            self._simulate(street, scenario)
            self._build(street, street / "dataset")
        for mode, stem in MODES:
            self._train(streets[0] / "dataset", base / "models", mode, stem, self.epochs)

    def operations(self, inputs):
        models = inputs / "models"
        ops = []
        for i, street in enumerate(self.streets(inputs)):
            dataset = street / "dataset"
            ops += [(f"street{i}_eval_{stem}",
                     lambda out, d=dataset, s=stem: experiment.eval_stage(
                         models / f"{s}.ckpt", d, out / f"eval_{s}.csv"))
                    for _, stem in MODES]
            ops += [(f"street{i}_handoff_{stem}",
                     lambda out, d=dataset, m=mode, s=stem: experiment.handoff_stage(
                         models / f"{s}.ckpt", models / f"{s}.ckpt", d / "pairs.ndrec",
                         out / "handoff.csv", label=m))
                    for mode, stem in MODES]
        return ops

    def check(self, inputs, outputs):
        problems = []
        for i, street in enumerate(self.streets(inputs)):
            produced = {mode: (inputs / "models" / f"{stem}.ckpt",
                               outputs / f"street{i}_eval_{stem}" / f"eval_{stem}.csv",
                               outputs / f"street{i}_handoff_{stem}" / "handoff.csv")
                        for mode, stem in MODES}
            problems += checks.check_replay(street / "dataset", produced)
        return problems


WORKLOADS = {"seed-pass": SeedPass, "train": Train, "replay": Replay}
