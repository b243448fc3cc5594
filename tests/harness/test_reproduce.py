"""The reproduction report: EXPERIMENTS.md is generated from the artifact
registry, and the findings of the artifacts no experiment computes.

Every table of EXPERIMENTS.md sits between ``<!-- reproduce:ID -->`` and
``<!-- /reproduce -->``. The first test regenerates each block at seed 0
and compares bytes, so a hand edit inside a block, a model change that
moves a printed number, and an artifact with no block all fail here.
Regenerate the blocks (after a deliberate change) with::

    PYTHONPATH=src python -m tests.harness.test_reproduce
"""

import re
from pathlib import Path

import pytest

import repro
from repro.exceptions import ConfigurationError
from repro.harness import anchors
from repro.harness.reproduce import ARTIFACTS, render, report

EXPERIMENTS = Path(repro.__file__).resolve().parents[2] / "EXPERIMENTS.md"
BLOCK = re.compile(
    r"(<!-- reproduce:([\w-]+) -->\n).*?(<!-- /reproduce -->)", re.S
)


def regenerate(text, tables):
    """``text`` with every block's body rendered from ``tables``."""
    return BLOCK.sub(
        lambda m: f"{m[1]}\n{render(tables[m[2]])}\n{m[3]}", text
    )


@pytest.fixture(scope="module")
def tables():
    return {artifact_id: make() for artifact_id, make in ARTIFACTS.items()}


def rows(table):
    return [dict(zip(table.header, row)) for row in table.rows]


def test_experiments_md_blocks_are_generated(tables):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    blocks = [m[2] for m in BLOCK.finditer(text)]
    assert sorted(blocks) == sorted(ARTIFACTS), "one block per artifact"
    assert regenerate(text, tables) == text


def test_unknown_artifact_names_the_known_ones():
    with pytest.raises(ConfigurationError, match="known: table01, table02"):
        report(["table05", "table13"])


class TestFigure2:
    """Datagen's tunable clustering coefficient (§2.5.1)."""

    def test_measured_cc_tracks_the_target(self, tables):
        low, high = (row["measured CC"] for row in rows(tables["figure02"]))
        assert low < 0.15
        assert 0.2 <= high <= 0.45
        assert high > 2 * low

    def test_high_target_has_clear_communities(self, tables):
        high = rows(tables["figure02"])[1]
        assert high["modularity (CDLP)"] > 0.2


class TestFigure10:
    """§4.8, both panels, from the data-generation experiment."""

    def test_speedups_near_the_paper(self, tables):
        for row in rows(tables["figure10"]):
            paper = anchors.FIGURE10_SPEEDUPS.get(row["SF"])
            if paper is not None:
                assert row["speedup"] == pytest.approx(paper, rel=0.40)

    def test_more_machines_help_more_at_larger_scale(self, tables):
        table = rows(tables["figure10"])
        for row in table:
            assert row["v0.2.6"] < row["8 machines"] < row["4 machines"]
        speedups = [row["4 to 16 speedup"] for row in table]
        assert speedups == sorted(speedups)
        # 10 B edges in under 8 hours on 16 machines.
        assert table[-1]["SF"] == 10000 and table[-1]["v0.2.6"] < 8 * 3600


def test_upload_is_separate_from_the_makespan(tables):
    uploads = {}
    for row in rows(tables["upload-time"]):
        assert row["makespan"] is not None
        assert row["upload"] > 0
        uploads[row["platform"]] = row["upload"]
    # Slow loaders preprocess slowly too: PGX.D's upload dominates.
    assert uploads["PGX.D"] == max(uploads.values())
    assert uploads["OpenG"] == min(uploads.values())


def test_each_ablated_mechanism_takes_its_finding_with_it(tables):
    (fits_g26, fits_d1000, shock1, shock2, ht16, ht32, swap1, swap2,
     queue, rival) = tables["ablation-model"].rows
    # skew -> Table 10's G26/D1000 split
    assert (fits_g26[2], fits_d1000[2]) == (False, True)
    assert fits_g26[3] == fits_d1000[3]
    # distribution shock -> Giraph's 2-machine cliff
    assert shock2[2] > shock1[2]
    assert shock2[3] < shock1[3]
    # hyper-threading yield -> PGX.D's 16 -> 32 thread gain
    assert ht32[2] < ht16[2]
    assert ht32[3] == ht16[3]
    # swap penalty -> GraphMat's single-machine PR outlier
    assert swap1[2] > swap2[2]
    assert swap1[3] < swap2[3]
    # queue-based BFS -> OpenG's R2 win over PowerGraph
    assert queue[2] < rival[2]
    assert queue[3] > queue[2]


def test_vertex_cut_absorbs_the_skew(tables):
    skewed, social = rows(tables["ablation-partitioning"])
    assert skewed["VC replication"] < skewed["EC replication"]
    assert skewed["VC imbalance"] < skewed["EC imbalance"]
    assert skewed["EC imbalance"] > social["EC imbalance"]
    assert skewed["VC imbalance"] <= social["VC imbalance"] + 0.05


def test_renewal_rounds(tables):
    stable, shifted = rows(tables["renewal"])
    assert sorted(stable["algorithms"].split(", ")) == sorted(
        ("BFS", "PR", "WCC", "CDLP", "LCC", "SSSP")
    )
    assert stable["added"] == "-"
    assert stable["reference class"] in ("L", "XL")
    assert "node2vec" in shifted["added"].split(", ")
    assert {"wcc", "cdlp"} <= set(shifted["obsoleted"].split(", "))


if __name__ == "__main__":
    EXPERIMENTS.write_text(
        regenerate(
            EXPERIMENTS.read_text(encoding="utf-8"),
            {artifact_id: make() for artifact_id, make in ARTIFACTS.items()},
        ),
        encoding="utf-8",
    )
