"""Floating-point matrix twin of the second composition's final case (row ``c``).

The engine reaches row ``c`` through exact Clifford words, exact xi_n
calculus and exact sphere moments.  This helper reaches the same number on
an independent path, with numpy and scipy only:

* Clifford letters are the 8x8 generator matrices of
  :func:`wresidue.oracles.generator_matrices`, densified by :func:`dense`;
  every symbol below is an 8x8 matrix-valued function of the covariable
  (xi', xi_n).
* Connection blocks are assembled from the atom values with the weights of
  the frozen model: ``M_d = 1/4 sum wF(j,l,d) c(f_j)c(f_l)``,
  ``N_d = 1/4 sum wP(s,t,d) (c(h_s)c(h_t) - hc(h_s)hc(h_t))``,
  ``A_d = 1/2 sum sh(j,s,d) c(f_j)c(h_s)`` and
  ``B_d = -2 M_d - 2 N_d - sum wM(j,s,d) c(f_j)c(h_s)``.
* With ``sigma(PQ) = sum (-i)^a / a! d_xi^a p d_x^a q`` and every tangential
  x-derivative zero at the base point, the inverse square is rebuilt from

      sigma_2(D^2) = |xi|^2,  d_xn |xi|^2 = h' |xi'|^2,
      sigma_1(D^2) = i (Gamma^n xi_n + sum_d B_d xi_d),  Gamma^n = (n-1)/2 h',
      sigma_-2 = 1/|xi|^2,
      sigma_-3 = -sigma_-2 (sigma_1(D^2) sigma_-2 - i d_xin sigma_2(D^2) d_xn sigma_-2),

  and the left factor of the case from

      sigma_2(nabla_X nabla_Y) = -(X.xi)(Y.xi),
      sigma_1(nabla_X nabla_Y) = i (X(Y).xi + (X.xi) A(Y) + (Y.xi) A(X)),
      sigma_-1 = sigma_2 sigma_-3 + sigma_1 sigma_-2
                 - i d_xin sigma_2(nabla_X nabla_Y) d_xn sigma_-2,

  where ``A(V) = sum_d V_d (M_d + N_d + A_d)``.
* pi+ is the principal part at +i, taken as the contour integral
  ``(1/2 pi i) oint f(eta) / (x - eta) d eta`` on ``|eta - i| = 1/2``
  (trapezoid rule, which converges geometrically on a circle).
* The xi_n integral is Gauss-Legendre in ``theta`` with ``xi_n = tan theta``;
  the sphere integral is Gauss-Legendre in the polar cosine crossed with a
  uniform azimuthal rule, over the unit sphere of area ``4 pi``.

The case value is ``-i Int_{S^2} Int_R tr[pi+ sigma_-1 . d_xin sigma_-2]``
(the case prefactor ``(-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!)`` at
``k = j = |alpha| = 0``).  The engine carries the sphere's measure as the
formal marker ``Omega3`` times a sphere average, so it is compared with
``Omega3 = 4 pi`` and ``pi = math.pi``.
"""
import math
from itertools import product

import numpy as np
from scipy.special import roots_legendre

from wresidue.clifford import CF, CN, HC
from wresidue.oracles import generator_matrices

P, Q = 2, 2
N = P + Q


def dense(matrix):
    """The 8x8 complex array of an exact monomial matrix ``(cols, phases)``,
    whose row r holds ``i**phases[r]`` in column ``cols[r]``."""
    cols, phases = matrix
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    out[np.arange(len(cols)), cols] = [(1, 1j, -1, -1j)[p] for p in phases]
    return out


def _antisym(atoms, stem, a, b, d):
    if a == b:
        return 0.0
    if a < b:
        return atoms[f"{stem}{a}{b}d{d}"]
    return -atoms[f"{stem}{b}{a}d{d}"]


def connection_blocks(atoms):
    """Per direction d = 1..n: the covariant block ``M_d + N_d + A_d`` and the
    first-order block ``B_d`` of the squared operator, as 8x8 matrices."""
    mats = {g: dense(m) for g, m in generator_matrices().items()}
    cf = {j: mats[(CF, j)] for j in range(1, P + 1)}
    ch = {s: mats[(CN, s)] for s in range(1, Q + 1)}
    hc = {s: mats[(HC, s)] for s in range(1, Q + 1)}
    conn, first = {}, {}
    for d in range(1, N + 1):
        m = sum(0.25 * _antisym(atoms, "wF", j, l, d) * cf[j] @ cf[l]
                for j, l in product(range(1, P + 1), repeat=2))
        n = sum(0.25 * _antisym(atoms, "wP", s, t, d)
                * (ch[s] @ ch[t] - hc[s] @ hc[t])
                for s, t in product(range(1, Q + 1), repeat=2))
        a = sum(0.5 * atoms[f"sh{j}{s}d{d}"] * cf[j] @ ch[s]
                for j, s in product(range(1, P + 1), range(1, Q + 1)))
        mixed = sum(atoms[f"wM{j}{s}d{d}"] * cf[j] @ ch[s]
                    for j, s in product(range(1, P + 1), range(1, Q + 1)))
        conn[d] = m + n + a
        first[d] = -2 * m - 2 * n - mixed
    return conn, first


def sphere_rule(n_polar=10, n_azimuth=24):
    """Nodes on the unit sphere in R^3 (rows) and weights summing to 4 pi."""
    z, wz = roots_legendre(n_polar)
    phi = 2 * math.pi * np.arange(n_azimuth) / n_azimuth
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    rho = np.sqrt(1 - zz ** 2)
    nodes = np.stack([rho * np.cos(pp), rho * np.sin(pp), zz], axis=-1)
    weights = np.outer(wz, np.full(n_azimuth, 2 * math.pi / n_azimuth))
    return nodes.reshape(-1, 3), weights.ravel()


def line_rule(n=200):
    """Nodes and weights for the real line through xi_n = tan(theta)."""
    t, wt = roots_legendre(n)
    theta = 0.5 * math.pi * t
    return np.tan(theta), 0.5 * math.pi * wt / np.cos(theta) ** 2


def pi_plus_weights(x, n=64, radius=0.5):
    """Matrix W with ``(pi+ f)(x_r) = sum_k W[r, k] f(eta_k)``, and the nodes
    eta_k on the circle ``|eta - i| = radius``."""
    eta = 1j + radius * np.exp(2j * math.pi * np.arange(n) / n)
    weights = (eta - 1j)[None, :] / (n * (x[:, None] - eta[None, :]))
    return weights, eta


def left_symbol(atoms, xi_t, xn):
    """sigma_-1 of nabla_X nabla_Y D^-2 at tangential covariables ``xi_t``
    (shape (S, 3), unit length) and normal covariables ``xn`` (shape (K,),
    complex allowed); returns shape (S, K, 8, 8)."""
    conn, first = connection_blocks(atoms)
    hp = atoms["hp"]
    X = np.array([atoms[f"X{d}"] for d in range(1, N + 1)])
    Y = np.array([atoms[f"Y{d}"] for d in range(1, N + 1)])
    XY = np.array([atoms[f"XdY{d}"] for d in range(1, N + 1)])
    eye = np.eye(8)
    gamma_n = 0.5 * (N - 1) * hp

    def dot(v):  # v . xi on the (S, K) grid
        return (xi_t @ v[:-1])[:, None] + v[-1] * xn[None, :]

    xx, yy, xy = dot(X), dot(Y), dot(XY)
    r2 = 1.0 + xn[None, :] ** 2          # |xi|^2 with |xi'| = 1
    dxn_sm2 = -hp / r2 ** 2               # d_xn sigma_-2 = -h' |xi'|^2 / |xi|^4
    b_tang = np.einsum("sd,dab->sab", xi_t,
                       np.stack([first[d] for d in range(1, N)]))
    b_xi = b_tang[:, None] + xn[None, :, None, None] * first[N]
    sigma1_sq = 1j * (b_xi + (gamma_n * xn)[None, :, None, None] * eye)
    sigma_m3 = -(sigma1_sq / r2[..., None, None]
                 - 1j * (2 * xn * dxn_sm2)[..., None, None] * eye) / r2[..., None, None]

    ax = sum(X[d - 1] * conn[d] for d in range(1, N + 1))
    ay = sum(Y[d - 1] * conn[d] for d in range(1, N + 1))
    sigma2_nn = -xx * yy
    sigma1_nn = 1j * (xy[..., None, None] * eye + xx[..., None, None] * ay
                      + yy[..., None, None] * ax)
    dxin_sigma2_nn = -(X[-1] * yy + Y[-1] * xx)
    return (sigma2_nn[..., None, None] * sigma_m3
            + sigma1_nn / r2[..., None, None]
            - 1j * (dxin_sigma2_nn * dxn_sm2)[..., None, None] * eye)


def final_case_d2d2(atoms):
    """Row ``c`` of the second composition at the given atom values (a
    mapping from atom name to number), with the sphere measure 4 pi."""
    xi_t, w_sphere = sphere_rule()
    x, w_line = line_rule()
    to_plus, eta = pi_plus_weights(x)
    left = left_symbol(atoms, xi_t, eta)                       # (S, K, 8, 8)
    right = (-2 * x / (1 + x ** 2) ** 2)[:, None, None] * np.eye(8)  # d_xin sigma_-2
    traced = np.einsum("skab,xk,xba->sx", left, to_plus, right, optimize=True)
    return -1j * complex(w_sphere @ traced @ w_line)
