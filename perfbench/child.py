"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> <workdir>
        Does a workload's set-up once, as a user would pay it in a fresh
        process, and prints the seconds it took, counted from the start of
        this script (winvit and numpy are not imported before the clock).
    python3 perfbench/child.py fixture <seed> <workdir>
        Builds the eval-manifest inputs in <workdir>: a checkpoint trained
        with the desk recipe on a seeded PPM manifest, and the seeded
        evaluation set written as 96x96 P6 PPMs listed in a manifest.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import recipe  # noqa: E402

FIXTURE_CHECKPOINT = "fixture.wmh"
MANIFEST = "manifest.csv"


def setup(workload: str, seed: int, workdir: str) -> float:
    winvit = recipe.import_winvit()
    if workload == "train-desk":
        recipe.train_data(winvit, seed)
        winvit.Model(recipe.model_config(winvit, seed))
    elif workload == "eval-manifest":
        winvit.load_checkpoint(os.path.join(workdir, FIXTURE_CHECKPOINT))
        winvit.load_manifest(os.path.join(workdir, MANIFEST), recipe.IMAGE_SIZE,
                             recipe.NUM_CLASSES)
    elif workload == "check-f64":
        import winvit.checks  # noqa: F401  (what `winvit check` loads)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return time.perf_counter() - START


def write_manifest(winvit, seed: int, stream: str, workdir: str, name: str, split=None):
    """Seeded synthetic set rendered at MANIFEST_IMAGE_SIZE, written as P6
    PPMs in ``workdir`` and listed in manifest ``name``. Every image keeps
    its generated split unless ``split`` overrides it."""
    import numpy as np
    from winvit.data import write_ppm_p6

    spec = winvit.SyntheticSpec(
        num_classes=recipe.NUM_CLASSES,
        samples_per_class=recipe.SAMPLES_PER_CLASS,
        image_size=recipe.MANIFEST_IMAGE_SIZE,
        seed=recipe.derive_seed(seed, stream),
    )
    lines = ["filepath,label,split"]
    for generated, dataset in winvit.generate_synthetic(spec).items():
        for image, label in zip(dataset.images, dataset.labels):
            ppm = f"{stream}{len(lines):03d}.ppm"
            write_ppm_p6(os.path.join(workdir, ppm), np.rint(image.data * 255.0).astype(np.uint8))
            lines.append(f"{ppm},{label},{split or generated}")
    path = os.path.join(workdir, name)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def fixture(seed: int, workdir: str) -> None:
    """The checkpoint learns from PPMs that went through the same reader
    and resize as the evaluation set, so its accuracy there is stable."""
    winvit = recipe.import_winvit()
    train_manifest = write_manifest(winvit, seed, "fixture", workdir, "fixture.csv")
    data = winvit.load_manifest(train_manifest, recipe.IMAGE_SIZE, recipe.NUM_CLASSES)
    model = winvit.Model(recipe.model_config(winvit, seed))
    tcfg = recipe.train_config(winvit, seed, eval_every=recipe.total_steps())
    winvit.train_loop(model, data["train"], data["val"], tcfg)
    winvit.save_checkpoint(model, os.path.join(workdir, FIXTURE_CHECKPOINT))
    write_manifest(winvit, seed, "eval", workdir, MANIFEST, split="val")


def main(argv):
    if len(argv) == 4 and argv[0] == "setup":
        print(f"{setup(argv[1], int(argv[2]), argv[3]):.6f}")
    elif len(argv) == 3 and argv[0] == "fixture":
        fixture(int(argv[1]), argv[2])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
