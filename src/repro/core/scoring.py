"""Spinner's score tie tolerance (paper eq. 8).

A vertex evaluates every candidate label ``l`` with

``score''(v, l) = (sum of edge weights to neighbours labelled l) / deg(v)
                  - b(l) / C``

where ``deg(v)`` is the weighted degree, ``b(l)`` the current load of
partition ``l`` and ``C`` the partition capacity (eq. 5).  The array
implementation is :class:`~repro.core.batch_program.BatchSpinnerProgram`;
the scalar per-vertex helpers it replays live with the test oracles
(``tests/oracles/scoring.py``).
"""

from __future__ import annotations

#: Absolute tolerance under which two label scores count as tied in the
#: label scan.  The batch program (:mod:`repro.core.batch_program`) and
#: the per-vertex reference scan use the same constant; change it here
#: and both implementations stay bit-equal.
TIE_EPSILON = 1e-12
