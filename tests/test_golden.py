"""Golden report digests: every experiment at quick-suite settings.

Each digest is the sha256 of ``run_experiment(...).to_json()`` at seed 0.
A change to the arithmetic, the row reduction or the enumeration order of
deltas and gammas that alters any report shows up here as a mismatch.
The moduli that the seeded search picks for the table fields and for
F_7^61 are pinned too, so a change to the modulus search that keeps the
reports but moves a field's representation is caught as well.
"""

import hashlib

import numpy as np
import pytest

from sidonspace.experiments import TABLE2_ROWS, TABLE3_ROWS, ExperimentSpec, run_experiment
from sidonspace.field import make_field

GOLDEN = [
    ("table2", {"limit": 2}, "f7168a30ca5845d394dfadc01d3a50e54a7d823daac031c9facf39bbb4953066"),
    ("table3", {"limit": 2}, "0d7dd6ba960d78b1deac34973f45ee3027bf87e83b237f5f2ae40787818df16b"),
    ("prop-f26", {}, "3f207348fc8b31d309cde1914c24e3fae13a9c71cdd53478298126da37940225"),
    ("prop-trace-9", {"limit": 1}, "c41c8513e0f41949daed9f9258c1ccf82106c35e357044b7c92c45b0651f06a8"),
    ("sample-f2-9", {"samples": 200}, "7ea427ff2b6f86c5d5a7a62c2f853c25d1738a20fa52e5517120189bb348259f"),
    ("brset-316", {}, "fb99aeba4e8f903d94bbbf33a5686a625aed0163befd4464ea19d5d1ed15c14e"),
]

# (p, n) -> modulus of make_field(p, 1, n) at seed 0, little-endian digits
MODULI = {
    (2, 24): "1010011000010110001011111",
    (2, 25): "10011011010101101111011101",
    (2, 28): "10001100001111100101101100101",
    (2, 30): "1101001011000100001010011000011",
    (2, 35): "111001110010110100101101001111001011",
    (2, 36): "1011001001100000011111101001101000001",
    (2, 40): "11011110110011011101100000001100001000111",
    (2, 42): "1010000000100000101110101011010111001001011",
    (2, 48): "1110101100011100001000111000101000100101110100101",
    (2, 49): "11111010011001111000110110010011011111101100010001",
    (3, 24): "1121022112100102011202101",
    (3, 25): "21200011011110120212122221",
    (3, 28): "12010020201112201212001110101",
    (3, 30): "2211111020002220122012120021201",
    (3, 35): "100211002021020202200102222000022111",
    (3, 36): "1220220101210120000020020102021111121",
    (3, 40): "10221200012122111020220100201000121212201",
    (3, 42): "1220201200020220000002100000020022200021211",
    (3, 48): "2020121102002210022100100020201002010020100201221",
    (7, 61): "13212563306415000266503506460263242313621410203046314363210541",
}


@pytest.mark.parametrize("name,params,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_digest(name, params, digest):
    report = run_experiment(ExperimentSpec(name, params, seed=0))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_subfield_enumeration_counts_in_base_p():
    # The tables visit deltas, and the propositions gammas, in this order.
    ctx = make_field(3, 1, 4)
    B = ctx.subfield_fp_basis(2)
    els = ctx.subfield_elements(2)
    assert els.shape == (9, 4)
    for i, row in enumerate(els):
        digits = np.array([i % 3, i // 3])
        assert (row == digits @ B % 3).all()


def test_moduli_cover_every_table_field():
    fields = {(2, n) for _, n, _ in TABLE2_ROWS} | {(3, n) for _, n, _ in TABLE3_ROWS}
    assert fields | {(7, 61)} == set(MODULI)


@pytest.mark.parametrize("p,n", sorted(MODULI), ids=[f"F{p}^{n}" for p, n in sorted(MODULI)])
def test_modulus_of_the_seeded_search(p, n):
    modulus = make_field(p, 1, n).modulus
    assert "".join(str(int(c)) for c in modulus) == MODULI[(p, n)]
