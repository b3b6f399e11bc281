"""Golden report digests: every experiment at quick-suite settings.

Each digest is the sha256 of ``run_experiment(...).to_json()`` at seed 0.
A change to the arithmetic, the row reduction or the enumeration order of
deltas and gammas that alters any report shows up here as a mismatch.
"""

import hashlib

import numpy as np
import pytest

from sidonspace.experiments import ExperimentSpec, run_experiment
from sidonspace.field import make_field

GOLDEN = [
    ("table2", {"limit": 2}, "f7168a30ca5845d394dfadc01d3a50e54a7d823daac031c9facf39bbb4953066"),
    ("table3", {"limit": 2}, "0d7dd6ba960d78b1deac34973f45ee3027bf87e83b237f5f2ae40787818df16b"),
    ("prop-f26", {}, "3f207348fc8b31d309cde1914c24e3fae13a9c71cdd53478298126da37940225"),
    ("prop-trace-9", {"limit": 1}, "c41c8513e0f41949daed9f9258c1ccf82106c35e357044b7c92c45b0651f06a8"),
    ("sample-f2-9", {"samples": 200}, "7ea427ff2b6f86c5d5a7a62c2f853c25d1738a20fa52e5517120189bb348259f"),
    ("brset-316", {}, "fb99aeba4e8f903d94bbbf33a5686a625aed0163befd4464ea19d5d1ed15c14e"),
]


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
