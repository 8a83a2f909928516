"""Section VI-C sensitivity: larger images and longer sequences.

Paper result: scaling CNN inputs by 4x/16x/64x pixels shrinks DiVa's
advantage from 3.6x to 2.1x/1.7x (bigger GEMMs populate the systolic
array better); scaling sequence length 2x/4x/8x similarly yields
2.0x/1.6x/1.5x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.design_space import evaluate_points_batched
from repro.experiments.report import format_table, mean
from repro.workloads.zoo import CNN_MODELS, RNN_MODELS, TRANSFORMER_MODELS

#: CNN image sizes: baseline 32 plus 4x/16x/64x *pixels* (2x/4x/8x side).
IMAGE_SIZES = (32, 64, 128, 256)
#: Sequence lengths: baseline 32 plus 2x/4x/8x.
SEQ_LENS = (32, 64, 128, 256)


@dataclass(frozen=True)
class SensitivityPoint:
    """DiVa-over-WS speedup at one scale setting."""

    model: str
    scale_label: str
    batch: int
    speedup: float


def _points(work: list[tuple[str, int, int]]) -> list[SensitivityPoint]:
    """Price ``(model, input_size, seq_len)`` settings in one batch.

    Each setting is a design-space point at the paper's 128x128 array,
    so the whole sweep is one :func:`evaluate_points_batched` call.
    """
    rows = evaluate_points_batched(
        [(name, 128, 128, input_size, seq_len)
         for name, input_size, seq_len in work])
    return [
        SensitivityPoint(
            model=name,
            scale_label=(f"img{input_size}" if name in CNN_MODELS
                         else f"seq{seq_len}"),
            batch=row["batch"],
            speedup=row["speedup"],
        )
        for (name, input_size, seq_len), row in zip(work, rows)
    ]


def run_images(sizes: tuple[int, ...] = IMAGE_SIZES,
               models: tuple[str, ...] = CNN_MODELS) -> list[SensitivityPoint]:
    """CNN image-size sweep (one point per model x size)."""
    return _points([(name, size, 32) for size in sizes for name in models])


def run_sequences(
    lens: tuple[int, ...] = SEQ_LENS,
    models: tuple[str, ...] = TRANSFORMER_MODELS + RNN_MODELS,
) -> list[SensitivityPoint]:
    """Transformer/RNN sequence-length sweep (one point per setting)."""
    return _points([(name, 32, length) for length in lens
                    for name in models])


def averages(points: list[SensitivityPoint]) -> dict[str, float]:
    """Mean speedup per scale setting."""
    labels = sorted({p.scale_label for p in points},
                    key=lambda s: int(s[3:]))
    return {
        label: mean([p.speedup for p in points if p.scale_label == label])
        for label in labels
    }


def render(image_points: list[SensitivityPoint] | None = None,
           seq_points: list[SensitivityPoint] | None = None) -> str:
    """Section VI-C as two text tables."""
    image_points = image_points or run_images()
    seq_points = seq_points or run_sequences()
    img_avg = averages(image_points)
    seq_avg = averages(seq_points)
    img_table = format_table(
        ["Image scale", "Avg DiVa speedup vs WS"],
        [[label, value] for label, value in img_avg.items()],
        title="Section VI-C: image-size sensitivity "
              "(paper: 3.6x/2.1x/1.7x for 4x/16x/64x pixels)",
    )
    seq_table = format_table(
        ["Sequence length", "Avg DiVa speedup vs WS"],
        [[label, value] for label, value in seq_avg.items()],
        title="Section VI-C: sequence-length sensitivity "
              "(paper: 2.0x/1.6x/1.5x for 2x/4x/8x)",
    )
    return img_table + "\n\n" + seq_table


if __name__ == "__main__":  # pragma: no cover - manual harness
    print(render())
