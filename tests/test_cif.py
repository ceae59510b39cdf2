import re

import numpy as np
import pytest

from busemann_lab import experiments as ex
from busemann_lab.cif import (
    _BLOCK,
    _MAX_REPLICAS,
    _ratio_samples,
    eta_cdf_estimate,
    xi_star_cdf_check,
)
from busemann_lab.special_functions import Rng

from oracles import per_replica_ratio_samples


class TestAnnealedLaws:
    def test_eta_cdf_estimate(self):
        est, se = eta_cdf_estimate(2.0, 1.0, 3000, Rng(master_seed=14, stream_id=2))
        assert se < 0.02
        assert abs(est - 0.5) < 4 * se

    def test_xi_star_cdf(self):
        est, se = xi_star_cdf_check(2.0, 1.0, 3000, Rng(master_seed=15, stream_id=2))
        assert abs(est - 0.5) < 4 * se

    def test_asymmetric_rho(self):
        est, se = eta_cdf_estimate(2.0, 0.5, 1500, Rng(master_seed=16, stream_id=2))
        assert abs(est - 0.75) < 4 * se

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            eta_cdf_estimate(2.0, 2.5, 100, Rng(master_seed=0))


class TestBatchedReplicas:
    """The blocked draw equals one stationary grid per replica, bit for bit."""

    @pytest.mark.parametrize("replicas", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 300])
    @pytest.mark.parametrize("indicator", [True, False])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_equals_per_replica(self, replicas, indicator, seed):
        rng = Rng(master_seed=seed, stream_id=1)
        got = _ratio_samples(2.0, 1.0, replicas, rng, indicator)
        want = per_replica_ratio_samples(2.0, 1.0, replicas, rng, indicator)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("indicator", [True, False])
    def test_spawned_64_bit_stream_id(self, indicator):
        # stream_id << 22 overflows 64 bits; both paths wrap it mod 2^64.
        rng = Rng(master_seed=7, stream_id=1).spawn(3)
        assert rng.stream_id >= 1 << 62
        got = _ratio_samples(3.0, 0.4, 300, rng, indicator)
        want = per_replica_ratio_samples(3.0, 0.4, 300, rng, indicator)
        assert np.array_equal(got, want)


class TestReplicaRange:
    """The runs refuse a replica count outside 1.._MAX_REPLICAS themselves,
    so an in-process caller gets the CLI's refusal."""

    @pytest.mark.parametrize("run", [ex.run_cif_eta, ex.run_cif_xi])
    @pytest.mark.parametrize("replicas", [0, -3, _MAX_REPLICAS + 1])
    def test_refused_in_process(self, run, replicas):
        message = f"--replicas: {replicas} is not in the range 1<=x<={_MAX_REPLICAS}."
        with pytest.raises(ex.ConfigError, match=re.escape(message)):
            run(2.0, 1.0, replicas, 7)

    def test_refused_before_the_other_options(self):
        # As click refused it while parsing, before the run saw --rho.
        with pytest.raises(ex.ConfigError, match="--replicas"):
            ex.run_cif_eta(2.0, 5.0, 0, 7)
