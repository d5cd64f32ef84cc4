"""Small builders and readers shared by the tests."""

from pathlib import Path

from wasslip.models import ActivationTag, MLP, MLPLayer


def linear(W, b=None):
    """A linear softmax classifier: the one-layer MLP with logits W x + b."""
    return MLP((MLPLayer(W, ActivationTag.IDENTITY, b),))


def read_csv(path):
    """Header and rows of a CSV written by `wasslip.io.write_csv`, as strings."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]
