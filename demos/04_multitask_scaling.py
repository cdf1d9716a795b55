"""Shared-trunk two-task training under a 50x rescaling of one loss.

The trunk is updated with a multi-objective direction computed from the
two tasks' shared-block gradients; each head takes plain gradient steps
on its own (possibly rescaled) loss. Rescaling a loss changes nothing
about the underlying problem, so a robust direction rule should behave
the same. The equiangular direction is provably invariant (same unit
direction, only the step length changes); the min-norm hull direction
instead collapses onto the small gradient, starving the rescaled task.
"""

import numpy as np

from mograd.data import stratified_split, synth_two_task, two_task_accuracy
from mograd.direction import edm_direction
from mograd.neural import init_two_head_mlp, two_task_gradients
from mograd.optimize import OptimizerConfig, run_multitask

data = synth_two_task(2000, 8, seed=100)
train_ds, test_ds = stratified_split(data, 0.25, seed=200)
SEEDS = (0, 1, 2)

print("two-task toy: trunk 8->32->16, linear heads, batch 64, 15 epochs, rate 0.01\n")
print(f"{'method':15s} {'scale':>6s} {'task-1 acc':>14s} {'task-2 acc':>14s}")
for method in ("edm", "mgda"):
    for kappa in (1.0, 50.0):
        accs = []
        for seed in SEEDS:
            model = init_two_head_mlp(8, (32, 16), (2, 2), seed=seed)
            cfg = OptimizerConfig(method=method, learning_rate=0.01, max_iters=15,
                                  stop_tolerance=1e-300, seed=seed + 500)
            trained, _ = run_multitask(model, train_ds, cfg, kappa=kappa, batch_size=64)
            accs.append(two_task_accuracy(trained, test_ds))
        accs = np.array(accs)
        label = "equiangular" if method == "edm" else "min-norm hull"
        print(f"{label:15s} {kappa:6.0f} {accs[:,0].mean():8.3f}+-{accs[:,0].std():.3f}"
              f" {accs[:,1].mean():8.3f}+-{accs[:,1].std():.3f}")

print()
print("first-step invariance: the equiangular trunk direction at the initial")
print("point is identical whichever scaling is applied (only its length moves):")
model = init_two_head_mlp(8, (32, 16), (2, 2), seed=0)
_, shared, _ = two_task_gradients(
    model, train_ds.features[:64], train_ds.labels[:64], train_ds.labels2[:64]
)
d1 = edm_direction(shared).normalized_direction
shared50 = shared.copy()
shared50[1] *= 50.0
d50 = edm_direction(shared50).normalized_direction
cosine = d1 @ d50 / (np.linalg.norm(d1) * np.linalg.norm(d50))
print(f"  cosine(step at 1x, step at 50x) = {cosine:.15f}")
print(f"  length ratio                    = {np.linalg.norm(d50) / np.linalg.norm(d1):.3f}")
