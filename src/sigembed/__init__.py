"""Isometric embeddings of signature-changing metrics, numerically certified.

The canonical model -t dt^2 + sum (dx^i)^2 changes signature across the
hypersurface t = 0.  This package embeds it (and the structure around it)
into flat space and into the boost-quotient cylinder, and verifies every
checkable claim numerically: pullback isometry, signature classification,
light-cone regularity, transverse radical, orbit transversality, quotient
injectivity and coordinate-chart consistency.
"""

from .errors import (DomainError, EvaluationError, ImmersionError, NumericalError,
                     PreconditionError, RegionError, SigembedError)
from .metric import (ChartPoint, MetricModel, SignatureClass,
                     classify_signature_grid, eval_metric_grid, lc_regularity_grid,
                     metric_derivatives_grid, radical_transversality_grid,
                     slice_metric_grid, toy_model)
from .minkowski import (EmbeddingMap, MinkowskiEvent, isometry_residual_grid,
                        jacobian_grid, minkowski_eta, psi_toy_map, pullback_grid,
                        temporal_f)
from .explicit import (HyperbolaFamily, asymptotic_theta, embed_explicit_grid,
                       explicit_embedding_map, hyperbola_xi, ode_residual_grid,
                       t_of_theta, theta_of_t, theta_of_t_grid, THETA_POLE)
from .misner import (MisnerEvent, from_misner, misner_metric, quotient_map_coords,
                     quotient_isometry_residual, source_embedding_map, to_misner)
from .transversality import (orbit_intersection_count,
                             orbit_intersection_count_grid, tangency_residual_grid,
                             toy_tangency_poly)
from .modelfile import load_model, model_from_dict

__version__ = "0.1.0"
