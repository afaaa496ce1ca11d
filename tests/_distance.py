"""A Gevrey-Sobolev distance between two fields, for the convergence tests."""

from strata.lattice import SpectralField
from strata.weights import WeightParams, log_weighted_l2


def theta_distance_log(a: SpectralField, b: SpectralField, sigma: float,
                       p: WeightParams) -> float:
    """log of the Gevrey-Sobolev distance at the limiting radius lambda_inf.

    Measures Cauchy convergence of the sheared-frame scalar: the distance
    between states at increasing times shrinks as the profile settles.
    """
    if a.lattice != b.lattice:
        raise ValueError("states live on different lattices")
    lat = a.lattice
    logw = p.lambda_inf * lat.l1 ** p.s + sigma * lat.log_brackets
    return log_weighted_l2(lat, a.coeffs - b.coeffs, logw)
