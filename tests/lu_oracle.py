"""scipy's dense LU with the LAPACK condition estimate, kept as the oracle of
the package's block kernel (`homological._block_inverse`)."""

import warnings

import numpy as np
import scipy.linalg as sla

from toruskam.homological import NearSingularError


def lu_gecon(T, cond_cap):
    """Dense LU of T with its 1-norm condition estimate (LAPACK gecon);
    returns (dense, lu_piv, cond) or raises NearSingularError past the cap."""
    dense = T.to_dense()
    anorm = np.abs(dense).sum(axis=0).max()
    with warnings.catch_warnings():
        # an exactly zero pivot warns here; gecon then gives rcond = 0 and
        # the cap check below raises NearSingularError(inf)
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu_piv = sla.lu_factor(dense, check_finite=False)
    gecon = sla.get_lapack_funcs(("gecon",), (lu_piv[0],))[0]
    rcond, _ = gecon(lu_piv[0], anorm, norm="1")
    cond = np.inf if rcond == 0 else 1.0 / rcond
    if cond > cond_cap:
        raise NearSingularError(cond)
    return dense, lu_piv, cond
