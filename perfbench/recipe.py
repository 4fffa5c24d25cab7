"""Workload recipes and seed derivation, shared by the runner and its child
processes.

This module imports neither numpy nor winvit, so a setup probe can start
its clock before either is imported. Every seed the program receives is
derived here from the one workload seed given on the command line.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# Desk recipe: 64x64 images, 8x8 patches, C=64, depth 4, 4 heads, 4x4
# windows, B=8. 20 samples per class give 48 training images (6 full
# batches per epoch) and 12 validation images. lr 2e-3 over 10 epochs
# reaches full validation accuracy on every seed tried (0-21), so the
# accuracy guard does not swing with the seed; shorter schedules stall
# at 2/3 on some seeds.
SAMPLES_PER_CLASS = 20
EPOCHS = 10
BATCH = 8
LR_INIT = 2e-3
NUM_CLASSES = 3
IMAGE_SIZE = 64
# eval-manifest images are written at 96x96 so load_manifest resizes them
MANIFEST_IMAGE_SIZE = 96


def derive_seed(seed: int, name: str) -> int:
    """Independent 32-bit seed for one input stream of a workload."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def import_winvit():
    """Import winvit from this checkout's ``src`` and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import winvit

    if not os.path.abspath(winvit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"winvit imported from {winvit.__file__}, not from {SRC}")
    return winvit


def model_config(winvit, seed: int):
    return winvit.ModelConfig(
        image_size=IMAGE_SIZE, num_classes=NUM_CLASSES, seed=derive_seed(seed, "model")
    )


def train_config(winvit, seed: int, eval_every: int = 0):
    return winvit.TrainConfig(
        epochs=EPOCHS,
        batch_size=BATCH,
        lr_init=LR_INIT,
        seed=derive_seed(seed, "train"),
        eval_every=eval_every,
    )


def train_data(winvit, seed: int, stream: str = "data"):
    spec = winvit.SyntheticSpec(
        num_classes=NUM_CLASSES,
        samples_per_class=SAMPLES_PER_CLASS,
        image_size=IMAGE_SIZE,
        seed=derive_seed(seed, stream),
    )
    return winvit.generate_synthetic(spec)


def total_steps() -> int:
    n_train = NUM_CLASSES * (SAMPLES_PER_CLASS - SAMPLES_PER_CLASS // 5)
    return EPOCHS * -(-n_train // BATCH)
