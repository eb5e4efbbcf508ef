"""scipy.stats as the reference of sampling fidelity: six shapes paired with
the scipy distributions they name, and how far a sample lies from one."""

import math

import numpy as np
import scipy.stats as st

from gridmc.distributions import (
    Custom,
    DiscreteUniform,
    Lognormal,
    Normal,
    Triangular,
    Uniform,
)

# each pair is written out by hand, so no parameter reaches the reference
# through gridmc
PAIRS = [
    (Uniform(0, 8), st.uniform(loc=0, scale=8)),
    (Triangular(0, 2, 10), st.triang(0.2, loc=0, scale=10)),
    (Normal(5, 2), st.norm(loc=5, scale=2)),
    (Lognormal(0.3, 0.5), st.lognorm(0.5, scale=math.exp(0.3))),
    (DiscreteUniform(1, 6), st.randint(1, 7)),
    (Custom([(1, 0.2), (2, 0.5), (4, 0.3)]),
     st.rv_discrete(values=([1, 2, 4], [0.2, 0.5, 0.3]))()),
]


def misfit(samples, ref):
    """(|mean of samples - ref's mean| in standard errors of ref, the KS
    distance of samples from ref's CDF). A discrete ref's CDF is compared
    at each atom the samples hold."""
    mean_se = abs(samples.mean() - ref.mean()) / math.sqrt(ref.var() / len(samples))
    if isinstance(ref.dist, st.rv_discrete):
        d = max(abs(np.mean(samples <= a) - ref.cdf(a)) for a in np.unique(samples))
    else:
        d = st.kstest(samples, ref.cdf).statistic
    return mean_se, d
