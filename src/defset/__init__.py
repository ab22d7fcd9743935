"""Defining-set linear codes over F_(p^m) with exact weight-distribution checks.

The library constructs the code with defining set D = {x in F_q* :
tr(x^2 + x) = 0}, enumerates its exact weight distribution, evaluates the
closed-form predictions (Gauss-sum constants, counting lemmas, the per-case
weight tables), and compares the two, exactly.
"""

from .closed_form import (BClass, CaseTag, G_even, GGbar_odd, Gbar_squared,
                          PredictedDistribution, classify, lemma8_value, lemma9_B, lemma10_N0a,
                          lemma11_counts, lemma12_V, lemma16_uc, lemma17_vc,
                          lemma_Nb_predicted, oracle, predicted_distribution,
                          predicted_length, realized_b_classes)
from .codes import (DefiningSet, VerifyReport, WeightDistribution,
                    brute_weight_distribution, codeword, count_Nb, defining_set,
                    distribution_csv, dual_distance_two, export_defining_set,
                    power_moment_check, secret_sharing_ratio, weight_of,
                    weight_enumerator_string)
from .cyclotomic import (ClosedGauss, CycInt, cyc_root, embed_complex,
                         gauss_closed, gauss_sum_exact)
from .errors import (CaseMismatch, DefSetError, DegreeTooSmall, EmptyDistribution,
                     FieldTooLarge, NonIntegralTableEntry, NotOddPrime, PrimeMismatch)
from .fields import DEFAULT_MAX_Q, FieldCtx, field, is_irreducible, legendre

__version__ = "0.1.0"

__all__ = [
    "BClass", "CaseMismatch", "CaseTag", "ClosedGauss", "CycInt", "DEFAULT_MAX_Q",
    "DefSetError", "DefiningSet", "DegreeTooSmall", "EmptyDistribution", "FieldCtx",
    "FieldTooLarge", "G_even", "GGbar_odd", "Gbar_squared", "NonIntegralTableEntry",
    "NotOddPrime", "PredictedDistribution", "PrimeMismatch", "VerifyReport",
    "WeightDistribution", "brute_weight_distribution", "classify", "codeword",
    "count_Nb", "cyc_root", "defining_set", "distribution_csv", "dual_distance_two",
    "embed_complex", "export_defining_set", "field", "gauss_closed", "gauss_sum_exact",
    "is_irreducible", "legendre", "lemma10_N0a", "lemma11_counts", "lemma12_V",
    "lemma16_uc", "lemma17_vc", "lemma8_value", "lemma9_B", "lemma_Nb_predicted",
    "oracle", "power_moment_check", "predicted_distribution", "predicted_length",
    "realized_b_classes", "secret_sharing_ratio", "weight_enumerator_string", "weight_of",
]
