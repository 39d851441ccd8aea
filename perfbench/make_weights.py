"""Train the toy retention model whose weights the decode workloads load.

Recipe of acceptance criterion 9a: 576 lines of 4-16 chars from `a`-`l`
(data seed 42, last 64 held out), 2 layers, 4 heads, d_model 64, d_ff 128,
max_text_len 18, no dropout, model seed 1, AdamW with lr 3e-3 -> 3e-5 over
56 epochs, batch 16, no label smoothing. It runs the full 56 epochs rather
than stopping at held-out CER 0.01: the early-stopped model still misreads
the ends of 15- and 16-char lines (see perfbench/NOTES.md). BLAS is pinned
to one thread so the run reproduces; it takes about 11 minutes on one core.

Run from the repository root:

    python3 perfbench/make_weights.py

It writes perfbench/weights/toy.json and toy.bin and prints their SHA-256
digests, which perfbench/run.py checks before every decode workload.
"""

import os

os.environ.update({k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from retline.checkpoint import save_checkpoint  # noqa: E402
from retline.data import generate_dataset  # noqa: E402
from retline.model import Model, ModelConfig  # noqa: E402
from retline.training import OptimizerSettings, TrainSettings, train  # noqa: E402

PREFIX = os.path.join(HERE, "weights", "toy")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ds = generate_dataset(tmp, "abcdefghijkl", count=576, min_len=4,
                              max_len=16, seed=42)
    train_samples, val_samples = ds.samples[:512], ds.samples[512:]
    cfg = ModelConfig(vocab_size=ds.vocab.size, max_text_len=18, layers=2,
                      heads=4, d_model=64, d_ff=128, mixer="retention",
                      gamma_strategy="layerwise", dropout_mix=0.0,
                      dropout_embed=0.0)
    model = Model(cfg, seed=1)
    t0 = time.perf_counter()
    rows = train(
        model, train_samples, val_samples, ds.vocab,
        OptimizerSettings(lr_max=3e-3, lr_min=3e-5, weight_decay=1e-3,
                          restart_epochs=56),
        TrainSettings(epochs=56, batch_size=16, label_smoothing=0.0, seed=0),
        log=lambda msg: print(msg, flush=True),
    )
    print(f"{len(rows)} epochs in {time.perf_counter() - t0:.0f} s, "
          f"val_cer {rows[-1]['val_cer']:.4f}")
    save_checkpoint(model, PREFIX)
    for ext in (".json", ".bin"):
        with open(PREFIX + ext, "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  toy{ext}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
