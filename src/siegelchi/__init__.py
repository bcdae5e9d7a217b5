"""siegelchi: exact characters of the level-2 symplectic congruence group,
cross-checked against numerically truncated theta constants."""

from .errors import (BadShape, DegreeMismatch, IndexOutOfRange,
                     InterpolationInconsistent, NonPositiveTolerance,
                     NotLevel2, NotSymplectic, NotUpperHalfSpace,
                     SiegelChiError, SingularFactor, TooFewUsable)
from .symplectic import (GeneratorWord, SymplecticMatrix, alphabet, commutator,
                         generator, identity, inverse, is_igusa48,
                         is_igusa48_up_to_sign, is_level2, is_level4,
                         make_matrix, matrix_power, multiply, random_igusa48,
                         random_word, word, word_to_matrix)
from .characteristics import (Characteristic, act, characteristic,
                              enumerate_even_mod2, enumerate_mod2, is_even, shift)
from .character import (AbelianExponents, EighthRoot, PhaseValue, chi,
                        chi_even_values, chi_exponents, chi_from_exponents,
                        chi_generator, chi_word, delta_sign_bit,
                        extract_abelian_exponents, is_chi_constant_over_even,
                        phase_full, phase_level2, word_exponents)
from .theta import (DEFAULT_TAIL_TOL, DEFAULT_TOL, THETA_FLOOR, SiegelPoint,
                    VerificationReport, det_sqrt_factor, mobius, siegel_point,
                    theta_constant, theta_constants, truncation_radius,
                    verify_character, verify_igusa_product,
                    verify_transformation_general)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
