"""Exact resistance distances and Kirchhoff indices of phenylene chains."""

from .chain_model import (
    ChainCode,
    LabeledChain,
    build_chain,
    build_terminal_chain,
    enumerate_words,
    helicene,
    linear,
)
from .exact_arith import Rational, format_rational, parse_rational
from .extremal_search import (
    extremes,
    find_extrema,
    kf_of_code,
    kink_flip,
    verify_conjecture,
    verify_theorem1,
)
from .resistance_engine import (
    ResistanceNetwork,
    effective_resistance,
    kirchhoff_index,
    resistance_matrix,
    resistance_sum,
)
from .st_isomer import STPair, lemma4_delta, make_st_pair, verify_lemma4

__version__ = "0.1.0"
