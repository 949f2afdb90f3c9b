"""Numerical experiments for linear representations of word-hyperbolic
groups: singular-value and eigenvalue gap certification, limit-set and
flag-map sampling, hyperconvexity scans, and optimal Hölder-regularity
estimation."""

__version__ = "0.1.0"

from .linalg import (MatrixD, SpectralData, Subspace, direct_sum_margin,
                     eigen_moduli, normalize_lift, point_subspace_distance,
                     proj_distance, singular_values, top_invariant_subspace)
from .groups import Ball, GeneratorSet, GroupElement, enumerate_ball
from .functors import (Representation, build_representation, build_su21_rep,
                       direct_sum_rep, flag_wedge, perturb_rep,
                       representation_from_matrices, su21_representation,
                       sym_square, sym_square_representation, tau_d,
                       tau_representation, veronese_point, wedge_power,
                       wedge_representation)
from .spectra import (AlphaEstimate, GapProfile, alpha_m_estimate,
                      cartan_jordan, cone_diagnostic, gap_profile,
                      gelfand_check, spectral_table)
from .boundary import (FlagSample, LimitCloud, controlled_set_check,
                       hyperconvexity_scan, irreducibility_proxy,
                       limit_samples, transversality_scan)
from .geometry import (ChartFrame, build_chart, chart_coords,
                       eigen_gap_inequality_check, hilbert_distance_psd,
                       hoelder_regression, tangency_check)
