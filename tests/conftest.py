import textwrap

import pytest

from trialscope.linker import build_synonym_map, link_all
from trialscope.simulate import SimConfig, generate


def write(path, content):
    path.write_text(textwrap.dedent(content).lstrip(), encoding="utf-8")
    return path


@pytest.fixture
def toy_csvs(tmp_path):
    """Two trials, three outcomes, one ranked sponsor."""
    trials = write(
        tmp_path / "trials.csv",
        """
        trial_id,phase,sponsor_name,sponsor_class,interventions,mesh_conditions,start_date,completion_date,enrollment,placebo_comparator,study_type
        NCT001,phase2,Sponsor A,industry,drugx,C14:Hypertension,2010-03-01,2012-06-30,120,true,interventional_superiority
        NCT002,phase3,Pfizer,industry,drugx;drugy+drugz,C14:Hypertension;C10:Migraine,2013-01-15,2015-12-31,900,false,interventional_superiority
        """,
    )
    outcomes = write(
        tmp_path / "outcomes.csv",
        """
        trial_id,outcome_rank,p_kind,p_value,mht_adjusted
        NCT001,primary,exact,0.04,false
        NCT001,secondary,lt,0.001,false
        NCT002,primary,exact,0.2,true
        """,
    )
    rankings = write(
        tmp_path / "rankings.csv",
        """
        sponsor_name,criterion,rank
        Pfizer,revenue2018,4
        """,
    )
    return trials, outcomes, rankings


@pytest.fixture(scope="session")
def sim_small():
    """A small selection-only simulated registry with links."""
    cfg = SimConfig(n_trials=900, seed=202)
    reg, truth = generate(cfg)
    synonyms = build_synonym_map(truth.synonym_pairs)
    links, summary = link_all(reg, synonyms=synonyms)
    return reg, truth, links, summary


@pytest.fixture(scope="session")
def sim_csvs(tmp_path_factory):
    """CSV inputs of a simulated registry large enough for every sweep cell
    type to compute: (trials, outcomes, rankings, synonyms) paths."""
    from trialscope.cli import main

    out = tmp_path_factory.mktemp("simcsv")
    assert main(["simulate", "--out", str(out), "--seed", "5", "--n-trials", "1100"]) == 0
    return tuple(out / f"{name}.csv" for name in ("trials", "outcomes", "rankings", "synonyms"))
