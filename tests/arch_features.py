"""Architecture-level features of a U-Net derivation, for the tests.

``extract_features`` reads every choice off a derivation: stage count,
encoder type, block counts and the cell-level norm, nonlinearity and
dropout of each side. The package itself summarizes a derivation by two of
these only, in ``Grammar.unit_features``; the tests check that summary and
the grammar's sampling against this full reading.
"""

from __future__ import annotations

from dataclasses import dataclass

from jahsband.grammar import Derivation, GrammarError


@dataclass(frozen=True)
class ArchFeatures:
    """Architecture-level summary of a derivation, usable as
    pseudo-hyperparameters in downstream analyses."""

    n_stages: int
    encoder_type: str  # "conv" | "residual"
    enc_blocks: tuple[int, ...]
    dec_blocks: tuple[int, ...]
    enc_norm: str
    enc_nonlin: str
    enc_dropout: bool
    dec_norm: str
    dec_nonlin: str
    dec_dropout: bool

    @property
    def total_blocks(self) -> int:
        return sum(self.enc_blocks) + sum(self.dec_blocks)


def extract_features(derivation: Derivation) -> ArchFeatures:
    """Read off stage count, encoder type, block counts, and cell-level
    choices from a U-Net derivation."""
    enc_node = dec_node = None
    for child in derivation[2]:
        if isinstance(child, tuple):
            if child[0].endswith("E"):
                enc_node = child
            elif child[0].endswith("D"):
                dec_node = child
    if enc_node is None or dec_node is None:
        raise GrammarError("not a U-Net derivation")

    def side(node: Derivation) -> tuple[list[int], str, str, bool]:
        blocks: list[int] = []
        norm = nonlin = ""
        dropout = False
        for child in node[2]:
            if not isinstance(child, tuple):
                continue
            lhs, _, sub = child
            if lhs.endswith("_Norm"):
                norm = sub[0]
            elif lhs.endswith("_Nonlin"):
                nonlin = sub[0]
            elif lhs.endswith("_Dropout"):
                dropout = sub[0] == "Dropout"
            else:
                blocks.append(int(sub[0][:-1]))
        return blocks, norm, nonlin, dropout

    enc_blocks, e_norm, e_nonlin, e_drop = side(enc_node)
    dec_blocks, d_norm, d_nonlin, d_drop = side(dec_node)
    return ArchFeatures(
        n_stages=len(enc_blocks),
        encoder_type="conv" if enc_node[2][0] == "ConvEncoder" else "residual",
        enc_blocks=tuple(enc_blocks),
        dec_blocks=tuple(dec_blocks),
        enc_norm=e_norm,
        enc_nonlin=e_nonlin,
        enc_dropout=e_drop,
        dec_norm=d_norm,
        dec_nonlin=d_nonlin,
        dec_dropout=d_drop,
    )
