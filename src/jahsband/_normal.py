"""Standard normal CDF and its inverse, in pure Python.

``ndtr`` and ``ndtri`` are ported operation for operation from the Cephes
Mathematical Library (S. L. Moshier, ``ndtr.c`` and ``ndtri.c``), which
``scipy.special`` evaluates, so each returns scipy's float bit for bit on the
same libm. Coefficients are Cephes' own as the shortest decimals of the same
doubles, and its ``polevl``/``p1evl`` loops are written out in Horner form, at
half the cost of a loop: ``ndtri`` runs once per truncated-normal draw.
"""

from __future__ import annotations

import math

_SQRT1_2 = 0.7071067811865476
_S2PI = 2.5066282746310007  # sqrt(2 pi)
_EXP_M2 = 0.1353352832366127  # exp(-2)
_MAXLOG = 709.782712893384  # log(DBL_MAX)


def _erf(x: float) -> float:
    # erf's T/U branch; ndtr and _erfc call it for |x| < 1 only
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    t = (((9.604973739870516 * z + 90.02601972038427) * z + 2232.005345946843) * z
        + 7003.325141128051) * z + 55592.30130103949
    u = ((((z + 33.56171416475031) * z + 521.3579497801527) * z + 4594.323829709801) * z
        + 22629.000061389095) * z + 49267.39426086359
    return x * t / u


def _erfc(x: float) -> float:
    # erfc for x >= sqrt(1/2), the only arguments ndtr passes: 1 - erf below
    # 1, P/Q below 8, R/S beyond, and 0 once exp(-x*x) underflows
    if x < 1.0:
        return 1.0 - _erf(x)
    if x * x > _MAXLOG:
        return 0.0
    z = math.exp(-x * x)
    if x < 8.0:
        p = (((((((2.461969814735305e-10 * x + 0.5641895648310689) * x
            + 7.463210564422699) * x + 48.63719709856814) * x + 196.5208329560771) * x
            + 526.4451949954773) * x + 934.5285271719576) * x
            + 1027.5518868951572) * x + 557.5353353693994
        q = (((((((x + 13.228195115474499) * x + 86.70721408859897) * x
            + 354.9377788878199) * x + 975.7085017432055) * x + 1823.9091668790973) * x
            + 2246.3376081871097) * x + 1656.6630919416134) * x + 557.5353408177277
    else:
        p = ((((0.5641895835477551 * x + 1.275366707599781) * x + 5.019050422511805) * x
            + 6.160210979930536) * x + 7.4097426995044895) * x + 2.9788666537210022
        q = (((((x + 2.2605286322011726) * x + 9.396035249380015) * x
            + 12.048953980809666) * x + 17.08144507475659) * x
            + 9.608968090632859) * x + 3.369076451000815
    return (z * p) / q


def ndtr(a: float) -> float:
    """P(N(0, 1) <= a); NaN for NaN."""
    if a != a:
        return math.nan
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


def ndtri(y0: float) -> float:
    """The a with ``ndtr(a) == y0``: -inf at 0, inf at 1, NaN outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 <= y0 <= 1.0:
        return math.nan
    negate = y0 <= 1.0 - _EXP_M2
    y = y0 if negate else 1.0 - y0
    if y > _EXP_M2:  # P0/Q0 for |y - 0.5| <= 3/8
        y = y - 0.5
        y2 = y * y
        p = (((-59.96335010141079 * y2 + 98.00107541859997) * y2 - 56.67628574690703) * y2
            + 13.931260938727968) * y2 - 1.2391658386738125
        q = (((((((y2 + 1.9544885833814176) * y2 + 4.676279128988815) * y2
            + 86.36024213908905) * y2 - 225.46268785411937) * y2 + 200.26021238006066) * y2
            - 82.03722561683334) * y2 + 15.90562251262117) * y2 - 1.1833162112133
        return (y + y * (y2 * p / q)) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # P1/Q1 for y in [exp(-32), exp(-2)]
        p = (((((((4.0554489230596245 * z + 31.525109459989388) * z + 57.16281922464213) * z
            + 44.08050738932008) * z + 14.684956192885803) * z + 2.1866330685079025) * z
            - 0.1402560791713545) * z - 0.03504246268278482) * z - 0.0008574567851546854
        q = (((((((z + 15.779988325646675) * z + 45.39076351288792) * z
            + 41.3172038254672) * z + 15.04253856929075) * z + 2.504649462083094) * z
            - 0.14218292285478779) * z - 0.03808064076915783) * z - 0.0009332594808954574
    else:  # P2/Q2 below exp(-32)
        p = (((((((3.2377489177694603 * z + 6.915228890689842) * z + 3.9388102529247444) * z
            + 1.3330346081580755) * z + 0.20148538954917908) * z + 0.012371663481782003) * z
            + 0.00030158155350823543) * z
            + 2.6580697468673755e-06) * z + 6.239745391849833e-09
        q = (((((((z + 6.02427039364742) * z + 3.6798356385616087) * z
            + 1.3770209948908132) * z + 0.21623699359449663) * z + 0.013420400608854318) * z
            + 0.00032801446468212774) * z
            + 2.8924786474538068e-06) * z + 6.790194080099813e-09
    x = x0 - z * p / q
    return -x if negate else x
