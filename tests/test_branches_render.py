"""Branch-stream characterization and ASCII figure rendering."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.render import (
    distribution_chart,
    render_figure_distribution,
    stacked_bar,
)
from repro.workloads.branches import (
    BranchMix,
    branch_stream,
    characterize,
    mix_for_profile,
)
from repro.workloads.spec2k import get_benchmark


class TestBranchMix:
    def test_shares_must_sum(self):
        with pytest.raises(ConfigurationError):
            BranchMix(loop=0.5, biased=0.5, patterned=0.5, random=0.0)

    def test_mix_for_fp_is_loopy(self):
        fp = mix_for_profile(get_benchmark("applu"))
        integer = mix_for_profile(get_benchmark("parser"))
        assert fp.loop > integer.loop

    def test_random_share_tracks_mispredict_rate(self):
        easy = mix_for_profile(get_benchmark("swim"))  # rate 0.01
        hard = mix_for_profile(get_benchmark("mcf"))  # rate 0.08
        assert hard.random > easy.random


class TestBranchStream:
    def test_deterministic(self):
        mix = mix_for_profile(get_benchmark("twolf"))
        a = list(branch_stream(mix, 500, seed=1))
        b = list(branch_stream(mix, 500, seed=1))
        assert a == b

    def test_loop_branches_mostly_taken(self):
        mix = BranchMix(loop=1.0, biased=0.0, patterned=0.0, random=0.0,
                        loop_trip_count=16)
        outcomes = [taken for _, taken in branch_stream(mix, 4000, seed=1)]
        taken_rate = sum(outcomes) / len(outcomes)
        assert taken_rate == pytest.approx(15 / 16, abs=0.03)

    def test_invalid_length(self):
        mix = mix_for_profile(get_benchmark("twolf"))
        with pytest.raises(ConfigurationError):
            list(branch_stream(mix, 0))


class TestCharacterize:
    def test_rate_tracks_profile_ordering(self):
        """Apps with harder control flow measure higher rates."""
        easy = characterize(get_benchmark("swim"), n_branches=30_000)
        hard = characterize(get_benchmark("mcf"), n_branches=30_000)
        assert hard > easy

    def test_rate_in_plausible_band(self):
        rate = characterize(get_benchmark("twolf"), n_branches=30_000)
        assert 0.0 < rate < 0.25

    def test_warmup_validation(self):
        with pytest.raises(ConfigurationError):
            characterize(get_benchmark("twolf"), n_branches=100, warmup=100)


class TestRendering:
    def test_stacked_bar_width(self):
        bar = stacked_bar([0.5, 0.3], 0.2, width=20)
        assert bar.startswith("[") and bar.endswith("]")
        assert len(bar) == 22

    def test_stacked_bar_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            stacked_bar([0.8, 0.5], 0.0)

    def test_distribution_chart_labels(self):
        chart = distribution_chart(
            {"art": ([0.8, 0.1], 0.1), "mcf": ([0.4, 0.3], 0.3)}, width=20
        )
        assert "art" in chart and "mcf" in chart
        assert "legend" in chart

    def test_render_from_report_rows(self):
        rows = [
            {"benchmark": "art", "dg0": 0.7, "dg1": 0.2, "miss": 0.1},
            {"benchmark": "mcf", "dg0": 0.3, "dg1": 0.3, "miss": 0.4},
        ]
        out = render_figure_distribution(rows, ["dg0", "dg1"], ["benchmark"])
        assert "art" in out and "#" in out

    def test_empty_chart_rejected(self):
        with pytest.raises(ConfigurationError):
            distribution_chart({})
