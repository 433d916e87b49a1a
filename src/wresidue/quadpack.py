"""QUADPACK's QAGIE over the real line (Piessens, de Doncker-Kapenga, Überhuber
and Kahaner, *QUADPACK*, Springer 1983), ported from the Fortran: ``dqagie``
with ``inf = 2``, the 15-point Gauss-Kronrod rule ``dqk15i`` on x = (1 - t)/t,
the error-list sort ``dqpsrt`` and the epsilon algorithm ``dqelg``.  Every
floating-point operation keeps QUADPACK's order and every branch its test, so
value, error estimate and subinterval count equal ``scipy.integrate.quad``'s
on (-inf, inf) bit for bit.  Arrays are indexed from 1 as in the Fortran.
"""

from __future__ import annotations

import sys
from typing import Callable

EPSABS = EPSREL = 1e-12
LIMIT = 400
LIMEXP = 50  # dqelg's epsilon table holds LIMEXP + 2 entries
EPMACH, UFLOW, OFLOW = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max

# dqk15i's constants as the nearest doubles: Kronrod abscissae, Kronrod
# weights (centre last) and Gauss weights (zero at Kronrod-only abscissae)
XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664,
      0.0, 0.3818300505051189, 0.0, 0.4179591836734694)


def _qk15i(f: Callable[[float], float], a: float, b: float):
    """dqk15i on (a, b) within (0, 1]: (result, abserr, resabs, resasc)."""
    def g(t):  # f at x = (1 - t)/t and at -x, times |dx/dt|
        x = (1.0 - t) / t
        return (f(x) + f(-x)) / t / t

    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = g(centr)
    fv = [(g(centr - hlgth * x), g(centr + hlgth * x)) for x in XGK]
    resg, resk, resabs = WG[7] * fc, WGK[7] * fc, abs(WGK[7] * fc)
    for (fval1, fval2), wg, wgk in zip(fv, WG, WGK):
        fsum = fval1 + fval2
        resg, resk = resg + wg * fsum, resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = WGK[7] * abs(fc - reskh)
    for (fval1, fval2), w in zip(fv, WGK):
        resasc = resasc + w * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result, resasc, resabs = resk * hlgth, resasc * hlgth, resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep ``iord`` ordered by decreasing error; returns (maxerr, errmax,
    nrmax) to bisect next.  Its ``last == 2`` case equals the general one."""
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = LIMIT + 3 - last if last > LIMIT // 2 + 2 else last
    errmin, jbnd = elist[last], jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # errmax goes here; insert errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            iord[k + 1] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd], iord[jupbn] = maxerr, last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg: extrapolate the limit of epstab[1..n]; returns
    (n, result, abserr, nres) with n and the tables updated."""
    nres += 1
    abserr, result = OFLOW, epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2, tol2 = abs(delta2), max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3, tol3 = abs(delta3), max(e1abs, abs(e0)) * EPMACH
            if err2 <= tol2 and err3 <= tol3:  # e0, e1, e2 equal to machine accuracy
                return n, res, max(err2 + err3, 5.0 * EPMACH * abs(res)), nres
            e3, epstab[k1] = epstab[k1], e1
            delta1 = e1 - e3
            err1, tol1 = abs(delta1), max(e1abs, abs(e3)) * EPMACH
            close = err1 <= tol1 or err2 <= tol2 or err3 <= tol3
            ss = 0.0 if close else 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if close or not abs(ss * e1) > 1e-4:  # omit the rest of the table
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        n = min(n, LIMEXP - 1)  # 2*(limexp/2) - 1 for the even LIMEXP
        for ib in range(2 - num % 2, 2 * newelm + 3, 2):  # shift the table
            epstab[ib] = epstab[ib + 2]
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
        if nres < 4:
            res3la[nres], abserr = result, OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qagie(f: Callable[[float], float]) -> tuple[float, float, int, int]:
    """Integral of ``f`` over the real line as (result, abserr, last, ier):
    ``last`` subintervals were used, and ``ier`` is QUADPACK's error code
    (0 when the requested accuracy was reached)."""
    result, abserr, defabs, resabs = _qk15i(f, 0.0, 1.0)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        return result, abserr, 1, 2
    if (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 1, 0

    alist, blist, rlist, elist = ([0.0] * (LIMIT + 1) for _ in range(4))
    iord = [0] * (LIMIT + 1)
    blist[1], rlist[1], elist[1], iord[1] = 1.0, result, abserr, 1
    rlist2, res3la = [0.0, result] + [0.0] * (LIMEXP + 1), [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, OFLOW
    nrmax, nres, ktmin, numrl2 = 1, 0, 0, 2
    extrap = noext = sum_rlist = False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    for last in range(2, LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b1, b2 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr]), blist[maxerr]
        a2, erlast = b1, errmax
        area1, error1, resabs, defab1 = _qk15i(f, a1, b1)
        area2, error2, resabs, defab2 = _qk15i(f, a2, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff2 += extrap
                iroff1 += not extrap
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(EPSABS, EPSREL * abs(area))
        ier = 2 if iroff1 + iroff2 >= 10 or iroff3 >= 20 else ier
        ierro = 3 if iroff2 >= 5 else ierro
        ier = 1 if last == LIMIT else ier
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_rlist = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # bisect on until the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the
            # larger ones first while any is left
            jupbnd = LIMIT + 3 - last if last > 2 + LIMIT // 2 else last
            larger = False  # also when the loop runs no trip
            for _ in range(nrmax, jupbnd + 1):
                maxerr, errmax = iord[nrmax], elist[iord[nrmax]]
                larger = abs(blist[maxerr] - alist[maxerr]) > small
                if larger:
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax, nrmax, extrap = elist[maxerr], 1, False
        small, erlarg = small * 0.5, errsum

    # keep the extrapolated result, or sum over the subintervals
    kept = not sum_rlist and abserr != OFLOW
    if kept and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        ier = ier or 3
        if result != 0.0 and area != 0.0:
            kept = not abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            kept = False
        elif area == 0.0:
            return result, abserr, last, ier - 1 if ier > 2 else ier
    if not kept:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # test on divergence; a zero area makes QUADPACK's ratio inf, or NaN
        ratio = result / area if area else (float("inf") if result else float("nan"))
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, last, ier - 1 if ier > 2 else ier
