from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import CORPUS_PARAMS, Instance, build_corpus  # noqa: E402

import formcone.ideals as ideals_module  # noqa: E402
from formcone import (  # noqa: E402
    cohen_macaulay_report,
    defect_regularity_equivalence,
    graded_dim,
)


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    instances = build_corpus()
    assert len(instances) >= 30, f"corpus shrank to {len(instances)} instances"
    return instances


@pytest.fixture(scope="session")
def corpus_results(corpus):
    """Run the full pipeline once per instance; criteria 3-6 read these."""
    out = []
    for inst in corpus:
        started = time.perf_counter()
        equivalence = defect_regularity_equivalence(inst.ctx, CORPUS_PARAMS)
        report = cohen_macaulay_report(inst.ctx, CORPUS_PARAMS)
        pres = inst.ctx.form_presentation()
        out.append({
            "instance": inst,
            "equivalence": equivalence,
            "report": report,
            "dim_graded": graded_dim(pres),
            "dim_module": inst.ctx.ideal_m.krull_dim(),
            "seconds": time.perf_counter() - started,
        })
    return out


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """A list that gains one entry per colon kernel, that is, per
    ``GraphBasis`` that ``ideals.meet_of_colons`` builds."""
    calls = []
    real = ideals_module.GraphBasis
    monkeypatch.setattr(ideals_module, "GraphBasis",
                        lambda *args: calls.append(1) or real(*args))
    return calls
