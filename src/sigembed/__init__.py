"""Isometric embeddings of signature-changing metrics, numerically certified.

The canonical model -t dt^2 + sum (dx^i)^2 changes signature across the
hypersurface t = 0.  This package embeds it (and the structure around it)
into flat space and into the boost-quotient cylinder, and verifies every
checkable claim numerically: pullback isometry, signature classification,
light-cone regularity, transverse radical, orbit transversality, quotient
injectivity and coordinate-chart consistency.
"""

from .config import NumericConfig
from .errors import (CapabilityError, DivergenceError, DomainError,
                     EvaluationError, ImmersionError, NumericalError,
                     PoleError, PreconditionError, RegionError,
                     SigembedError)
from .metric import (ChartPoint, MetricModel, SignatureClass, SignatureReport,
                     classify_signature, classify_signature_grid, eval_metric,
                     lc_regularity_at, metric_derivatives,
                     radical_transversality, slice_metric, toy_model)
from .minkowski import (EmbeddingMap, MinkowskiEvent, isometry_residual,
                        isometry_residual_grid, map_jacobian, minkowski_eta,
                        psi_toy, psi_toy_map, pullback, temporal_f)
from .explicit import (HyperbolaFamily, arc_integral, asymptotic_theta,
                       embed_explicit, embed_explicit_grid,
                       explicit_embedding_map, hyperbola_xi, ode_residual,
                       t_of_theta, theta_of_t, theta_of_t_grid, THETA_POLE)
from .misner import (MisnerEvent, compose_embedding, from_misner,
                     misner_metric, quotient_isometry_residual,
                     source_embedding_map, to_misner)
from .transversality import (orbit_intersection_count,
                             orbit_intersection_count_grid, tangency_residual,
                             toy_tangency_poly)
from .modelfile import load_model, model_from_dict

__version__ = "0.1.0"
