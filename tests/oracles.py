"""Independent reference computations for the tests.

None of these is on a path the package runs: the fock and gaussian engines
solve the pumping in closed form, the Fock engines act on the charge blocks
of the state and build the squeeze unitary sector by sector, the
dispersive Hamiltonian is built one way in the package, and coherent and
random states only serve as test inputs.  Each
oracle here computes the same physics another way, so a test can compare
the two.  The Fock engines also never rotate their state back to the bare
modes; bare_state does that for a test that compares bare density matrices.
The three-level Hamiltonian is built from a cached sparsity pattern, and
its RK4 step accumulates in place; dense_full_hamiltonian and rk4_reference
are the dense four-term sum and the plain RK4 loop they replaced.  The
moments read their bands through a table cached per charges and grid;
band_by_band_moments reads each band on its own, through charge_diagonal.
The fock engine reads a step's samples in closed form and damps its state
once per step; the tests' per-interval references damp it by
ChargeBlocks.damped once per clock interval instead, and dense_damping_pass
applies the Kraus operators one at a time to the dense state.  The squeezed frame
enters a state through its factor F, rho = F F+, on the sector pairs that
share a column of F; dense_frame_entry rotates a dense copy of its matrix
instead, and split_charges splits a dense matrix by charge.  The gaussian sweep
reads its rows in double precision from moments held in the squeezed frame;
two_step_vacuum_reading evaluates the same closed form in 50-digit decimal.
"""

import decimal
import math
import warnings
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.special import comb

from cavsqueeze.dynamics import Trajectory
from cavsqueeze.gaussian import OMEGA
from cavsqueeze.hilbert import (
    ChargeBlocks,
    DensityMatrix,
    Operator,
    SpaceDescriptor,
    _charge_columns,
    annihilation_op,
    atom_transition_op,
    number_op,
)
from cavsqueeze.model import DerivedParams, PhysicalParams, StarkShifts, build_squeeze_operator, squeeze_sectors

HERMITICITY_TOL = 1e-8
STEP_BOUND = 0.05
MAX_STEPS = 10_000_000


def lindblad_evolve(
    rho0: DensityMatrix,
    jumps: Sequence[tuple],
    t_span: tuple,
    dt: Optional[float] = None,
    hamiltonian: Optional[Operator] = None,
    record: Optional[Callable] = None,
    sample_times: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Fixed-step fourth-order integration of the master equation
    drho/dt = -i[H, rho] + sum_k gamma_k (L rho L+ - {L+L, rho}/2).

    jumps is a list of (Operator, rate) pairs.  When dt is omitted a stable
    step is chosen from the spectral scale of the generator; an explicit dt
    is validated against the fastest rate in the problem.  Trace drift
    beyond 1e-8 is renormalized and counted in diagnostics; populations are
    monitored for negativity.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("t_span must be ordered")
    space = rho0.space
    ops = []
    for op, rate in jumps:
        if rate < 0:
            raise ValueError("jump rates must be nonnegative")
        if op.space != space:
            raise ValueError("jump operator space does not match the state")
        ops.append((op.matrix, float(rate)))
    hm = None
    h_norm = 0.0
    if hamiltonian is not None:
        if hamiltonian.space != space:
            raise ValueError("Hamiltonian space does not match the state")
        hm = hamiltonian.matrix
        defect = np.max(np.abs(hm - hm.conj().T))
        if defect > HERMITICITY_TOL:
            raise ValueError(f"Hamiltonian is not Hermitian (defect {defect:.3e})")
        h_norm = float(np.max(np.abs(np.linalg.eigvalsh(hm)))) if hm.size else 0.0

    # stiffness estimate: Hamiltonian spectral radius plus summed damping scales
    damping = 0.0
    for lm, rate in ops:
        if rate > 0.0:
            gram = lm.conj().T @ lm
            damping += rate * float(np.max(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))))
    stiffness = 2.0 * h_norm + damping

    span = t1 - t0
    if dt is None:
        dt = span if stiffness == 0.0 else min(span if span > 0 else 1.0, 0.2 / stiffness)
    else:
        fastest = max([rate for _, rate in ops] + [h_norm] + [0.0])
        if fastest > 0 and dt * fastest > STEP_BOUND:
            raise ValueError(
                f"step-size violation: dt*max(rate, |H|) = {dt * fastest:.3g} > {STEP_BOUND}"
            )
        if stiffness > 0 and dt > 1.0 / stiffness:
            warnings.warn(
                f"dt={dt:g} is close to the stability limit 2.8/{stiffness:.3g}",
                stacklevel=2,
            )
    if sample_times is None:
        sample_times = np.linspace(t0, t1, 101) if span > 0 else np.array([t0])
    else:
        sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size and (sample_times[0] < t0 - 1e-12 or sample_times[-1] > t1 + 1e-12):
        raise ValueError("sample_times must lie within t_span")

    # effective non-Hermitian drift G = -iH - sum gamma/2 L+L
    g_drift = np.zeros((space.dim, space.dim), dtype=complex)
    if hm is not None:
        g_drift += -1j * hm
    jump_ops = []
    for lm, rate in ops:
        if rate == 0.0:
            continue
        g_drift -= 0.5 * rate * (lm.conj().T @ lm)
        jump_ops.append(math.sqrt(rate) * lm)

    def rhs(rho):
        out = g_drift @ rho
        out = out + out.conj().T
        for lm in jump_ops:
            out += (lm @ rho) @ lm.conj().T
        return out

    renormalizations = 0
    total_steps = 0

    def advance(rho, span_seg):
        nonlocal renormalizations, total_steps
        if span_seg <= 0:
            return rho
        n_seg = max(1, math.ceil(span_seg / dt))
        total_steps += n_seg
        if total_steps > MAX_STEPS:
            raise ValueError(f"integration needs more than {MAX_STEPS} steps; refusing")
        h = span_seg / n_seg
        for _ in range(n_seg):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * h * k1)
            k3 = rhs(rho + 0.5 * h * k2)
            k4 = rhs(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tr = float(np.trace(rho).real)
            if abs(tr - 1.0) > 1e-8:
                rho /= tr
                renormalizations += 1
        return rho

    rho = rho0.matrix.copy()
    rows = []
    min_population = math.inf
    t_cur = t0
    for t_target in sample_times:
        rho = advance(rho, float(t_target) - t_cur)
        t_cur = float(t_target)
        min_population = min(min_population, float(np.diag(rho).real.min()))
        rows.append(record(rho) if record is not None else {})
    rho = advance(rho, t1 - t_cur)

    records = {key: np.array([row[key] for row in rows]) for key in rows[0]} if rows and rows[0] else {}
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    final = DensityMatrix(space, rho)
    return Trajectory(
        times=sample_times,
        records=records,
        final_state=final,
        diagnostics={
            "dt": float(dt),
            "steps": int(total_steps),
            "trace_renormalizations": int(renormalizations),
            "min_population": float(min_population),
        },
    )


def effective_hamiltonian_rate_form(d: DerivedParams, stark: StarkShifts, s: SpaceDescriptor) -> Operator:
    """The dispersive Hamiltonian regrouped as light shifts plus a two-mode flip term.

    Equals model.build_effective_hamiltonian exactly for real nonnegative
    couplings with delta1 < 0 < delta2.
    """
    a1 = annihilation_op(s, 1).matrix
    a2 = annihilation_op(s, 2).matrix
    n1 = number_op(s, 1).matrix
    n2 = number_op(s, 2).matrix
    p_gg = atom_transition_op(s, "g", "g").matrix
    p_hh = atom_transition_op(s, "h", "h").matrix
    s_hg = atom_transition_op(s, "h", "g").matrix
    eye = np.eye(s.dim)
    diag_h = stark.per_photon_2 * n2 + stark.shift_h * eye
    diag_g = stark.shift_g * eye + stark.per_photon_1 * n1
    flip = (d.theta2 * a2.conj().T - d.theta1 * a1) @ s_hg
    return Operator(s, diag_h @ p_hh + diag_g @ p_gg + flip + flip.conj().T)


def build_displacement_operator(s: SpaceDescriptor, alpha1: complex, alpha2: complex) -> Operator:
    """Product of coherent displacements exp(alpha_j a_j+ - alpha_j* a_j) on both modes."""
    alpha1 = complex(alpha1)
    alpha2 = complex(alpha2)
    if not all(math.isfinite(v) for v in (alpha1.real, alpha1.imag, alpha2.real, alpha2.imag)):
        raise ValueError("displacement amplitudes must be finite")
    if abs(alpha1) ** 2 > s.n1_trunc / 4 or abs(alpha2) ** 2 > s.n2_trunc / 4:
        warnings.warn(
            "displacement amplitude large for the truncation (|alpha|^2 > N/4); "
            "distribution tails will be clipped",
            stacklevel=2,
        )
    a1 = annihilation_op(s, 1)
    a2 = annihilation_op(s, 2)
    gen = (
        alpha1 * a1.dagger() - np.conj(alpha1) * a1
        + alpha2 * a2.dagger() - np.conj(alpha2) * a2
    )
    return Operator(s, scipy.linalg.expm(gen.matrix))


def gaussian_block_evolve(mean, cov, epsilon: float, gamma: float, which: int, t: float):
    """Moments (mean, cov) after pumping transformed mode 1 or 2 for t,
    from the Lindblad drift and diffusion of b_j in the bare quadratures.

    The mean obeys dm/dt = A m and the covariance dV/dt = A V + V A^T + D;
    both are integrated through a block matrix exponential.
    """
    ch, sh = math.cosh(epsilon), math.sinh(epsilon)
    # c with b_j = c . R: b1 = cosh a1 - sinh a2+, b2 = cosh a2 - sinh a1+
    if which == 1:
        c = np.array([ch, 1j * ch, -sh, 1j * sh])
    else:
        c = np.array([-sh, 1j * sh, ch, 1j * ch])
    outer = np.outer(c, c.conj())
    drift = -(gamma / 2.0) * (OMEGA @ outer.imag)
    diffusion = (gamma / 4.0) * (OMEGA @ outer.real @ OMEGA.T)
    # the auxiliary block carries e^{+gamma t/2} growth, so long horizons
    # are split into well-conditioned chunks and composed exactly
    n_chunks = max(1, math.ceil(gamma * t / 4.0))
    block = np.zeros((8, 8))
    block[:4, :4] = drift
    block[:4, 4:] = diffusion
    block[4:, 4:] = -drift.T
    prop = scipy.linalg.expm(block * (t / n_chunks))
    f = prop[:4, :4]
    q = prop[:4, 4:] @ f.T
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    for _ in range(n_chunks):
        mean = f @ mean
        cov = f @ cov @ f.T + q
    return mean, 0.5 * (cov + cov.T)


def charge_diagonal(rho: ChargeBlocks, d1: int, d2: int) -> np.ndarray:
    """rho[n1, n2, n1 - d1, n2 - d2] on the (N1, N2) grid, zero where that
    column is off the grid; it lies in the block of charge d1 - d2."""
    n2_trunc = rho.blocks.shape[3]
    if abs(d2) >= n2_trunc:
        return np.zeros(rho.blocks.shape[2:], complex)
    return rho.block(d1 - d2)[n2_trunc - 1 - d2]


def band_by_band_moments(rho: ChargeBlocks) -> tuple:
    """analysis.band_moments(band_sums(rho)) with each band looked up,
    cropped to the grid and summed on its own: (mean, cov) of
    (X1, P1, X2, P2), vacuum cov I/4."""
    n1, n2 = np.indices(rho.blocks.shape[2:], dtype=float)

    def band(d1, d2, weight):
        # tr(O rho) for O|m> = weight[m] |m - d>: the sum of
        # weight[m] <m|rho|m - d> over m with m and m - d on the grid
        m = tuple(slice(max(d, 0), n + min(d, 0)) for d, n in zip((d1, d2), n1.shape))
        return np.einsum("ij,ij->", charge_diagonal(rho, d1, d2)[m], weight[m])

    a = np.array([band(1, 0, np.sqrt(n1)), band(0, 1, np.sqrt(n2))])
    # centred <a_j a_k> and <a_j+ a_k>
    a1a2 = band(1, 1, np.sqrt(n1 * n2))
    aa = np.array([[band(2, 0, np.sqrt(n1 * (n1 - 1.0))), a1a2],
                   [a1a2, band(0, 2, np.sqrt(n2 * (n2 - 1.0)))]]) - np.outer(a, a)
    a1d_a2 = band(-1, 1, np.sqrt((n1 + 1.0) * n2))
    ada = np.array([[band(0, 0, n1), a1d_a2],
                    [np.conj(a1d_a2), band(0, 0, n2)]]) - np.outer(a.conj(), a)
    # X = (a + a+)/2, P = (a - a+)/2i and a a+ = a+ a + 1
    cov = np.empty((4, 4))
    cov[0::2, 0::2] = 0.5 * (aa + ada).real + 0.25 * np.eye(2)
    cov[1::2, 1::2] = 0.5 * (ada - aa).real + 0.25 * np.eye(2)
    cov[0::2, 1::2] = 0.5 * (aa + ada).imag
    cov[1::2, 0::2] = cov[0::2, 1::2].T
    return np.column_stack([a.real, a.imag]).ravel(), cov


def random_low_fock_state(s: SpaceDescriptor, levels: int, rank: int, seed: int) -> np.ndarray:
    """Random mixed state supported on n1, n2 < levels, as a full matrix."""
    rng = np.random.default_rng(seed)
    low = [s.index(0, n1, n2) for n1 in range(levels) for n2 in range(levels)]
    g = np.zeros((s.dim, rank), dtype=complex)
    g[low] = rng.normal(size=(len(low), rank)) + 1j * rng.normal(size=(len(low), rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dense_squeeze_operator(s: SpaceDescriptor, epsilon: float) -> np.ndarray:
    """exp(epsilon*(a1 a2 - a1+ a2+)) by one dense expm on the whole space."""
    a1 = annihilation_op(s, 1)
    a2 = annihilation_op(s, 2)
    gen = a1 @ a2 - a1.dagger() @ a2.dagger()
    return scipy.linalg.expm((epsilon * gen).matrix)


def dense_damping_pass(rho4: np.ndarray, eta: float, mode: int) -> np.ndarray:
    """Amplitude-damping map on one factor of rho reshaped (N1, N2, N1, N2),
    one Kraus operator at a time on the whole array."""
    n = rho4.shape[0] if mode == 1 else rho4.shape[1]
    out = np.zeros_like(rho4)
    levels = np.arange(n)
    for k in range(n):
        m = levels[: n - k]
        w = np.sqrt(comb(m + k, k) * eta**m * (1.0 - eta) ** k)
        if mode == 1:
            out[: n - k, :, : n - k, :] += (
                w[:, None, None, None] * w[None, None, :, None] * rho4[k:, :, k:, :]
            )
        else:
            out[:, : n - k, :, : n - k] += (
                w[None, :, None, None] * w[None, None, None, :] * rho4[:, k:, :, k:]
            )
    return out


def dense_kraus_pass(rho4: np.ndarray, stay: np.ndarray, jump: np.ndarray, channel: str) -> np.ndarray:
    """One atom transit on rho reshaped (N1, N2, N1, N2): the real pair of
    transit_kraus_pair along the pumped mode, applied to the whole array.
    The jump's phase +-i cancels in K rho K+."""
    axes = (0, 1, 2, 3) if channel == "b1" else (1, 0, 3, 2)  # the pumped mode first
    rho = rho4.transpose(axes)
    new = stay[:, None, None, None] * stay[:, None] * rho
    new[:-1, :, :-1, :] += jump[1:, None, None, None] * jump[1:, None] * rho[1:, :, 1:, :]
    return new.transpose(axes)


def interval_walk(apply: Callable) -> Callable:
    """A dynamics.stepwise walk that carries the state from each stop to the next by
    apply(state, stop - previous stop), from 0 and skipping an interval of 0, and reads it at
    each stop before the end: the per-interval reference of a pumping step."""
    def walk(state, stops, end, read):
        rows, previous = [], 0.0
        for i, stop in enumerate((*stops, end)):
            state = apply(state, stop - previous) if stop != previous else state
            previous = stop
            if i < len(stops):
                rows.append(read(state))
        return rows, state

    return walk


def split_charges(rho4: np.ndarray, charges: Optional[Sequence[int]] = None) -> ChargeBlocks:
    """The ChargeBlocks of rho4, shaped (N1, N2, N1, N2), holding the given charges, or by default
    every charge that has a nonzero entry.  The blocks are gathered one charge at a time, so no
    array of the charge of every entry is made."""
    rho4 = np.asarray(rho4, complex)
    n1_trunc, n2_trunc = rho4.shape[:2]
    rows = np.indices((n1_trunc, n2_trunc), sparse=True)

    def gather(q):
        c1, c2, on_grid = _charge_columns(np.array([q]), n1_trunc, n2_trunc)
        block = rho4[(*rows, np.clip(c1[0], 0, n1_trunc - 1), np.clip(c2[0], 0, n2_trunc - 1))]
        block[~on_grid[0]] = 0.0
        return block

    if charges is None:
        span = n1_trunc + n2_trunc - 2
        charges = [q for q in range(-span, span + 1) if gather(q).any()]
    charges = np.asarray(charges, dtype=int)
    blocks = np.empty((charges.size, 2 * n2_trunc - 1, n1_trunc, n2_trunc), complex)
    for i, q in enumerate(charges):
        blocks[i] = gather(q)
    return ChargeBlocks(charges, blocks)


def dense_frame_entry(rho0: DensityMatrix, epsilon: float) -> ChargeBlocks:
    """The ChargeBlocks of S rho0 S+ through the dense matrix: each real
    sector block of S applied to a float view of the rows of a copy of rho0,
    then of the rows of its transpose, and the result split by charge."""
    space = rho0.space
    sectors = squeeze_sectors(space, epsilon)
    # S rho S+ = (S (S rho)^T)^T for the real S
    rho = rho0.matrix.copy()
    cuts = [n1 * space.n2_trunc + n2 for n1, n2, _ in sectors]
    for rows in (rho, rho.T):
        for cut, (_, _, block) in zip(cuts, sectors):
            rows[cut] = (block @ rows[cut].view(float)).view(complex)
    return split_charges(rho.reshape(space.shape[1:] * 2))


def bare_state(rho_b: ChargeBlocks, epsilon: float) -> np.ndarray:
    """S+ rho_b S: the bare-mode density matrix of a squeezed-frame state,
    as a full matrix."""
    space = SpaceDescriptor(1, *rho_b.blocks.shape[2:])
    squeeze = build_squeeze_operator(space, epsilon).matrix
    return squeeze.conj().T @ rho_b.dense().reshape(space.dim, space.dim) @ squeeze


def loop_arrival_times(rate: float, seed: int, duration: float) -> np.ndarray:
    """Poisson arrival times in [0, duration) as ArrivalProcess draws them,
    the exponential gaps added to a running total one at a time."""
    if rate == 0.0 or duration == 0.0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    times, t = [], 0.0
    while True:
        for gap in rng.exponential(1.0 / rate, size=256):
            t += gap
            if t >= duration:
                return np.array(times)
            times.append(t)


def loop_accepted_counts(params: PhysicalParams, duration: float, arrivals, sample_times) -> tuple:
    """(counts, dropped) of dynamics._accepted_counts by the drop rule applied one arrival at a
    time: an arrival is accepted once the last accepted atom's time + tau has passed."""
    accepted, dropped, busy_until = [], 0, -math.inf
    for t in arrivals.sample(duration):
        if t >= busy_until:
            accepted.append(t)
            busy_until = t + params.tau
        else:
            dropped += 1
    return np.append(np.searchsorted(accepted, sample_times, side="right"), len(accepted)), dropped


def dense_full_hamiltonian(p: PhysicalParams, s: SpaceDescriptor, t: float) -> np.ndarray:
    """build_full_hamiltonian as the dense sum of its four phase x coupling
    x operator terms plus their conjugate transpose."""
    a1 = annihilation_op(s, 1).matrix
    a2 = annihilation_op(s, 2).matrix
    s_eh = atom_transition_op(s, "e", "h").matrix
    s_eg = atom_transition_op(s, "e", "g").matrix
    phase1 = np.exp(-1j * p.delta1 * t)
    phase2 = np.exp(-1j * p.delta2 * t)
    half = (
        p.omega1 * phase1 * s_eh
        + p.omega2 * phase2 * s_eg
        + p.g1 * phase1 * (a1 @ s_eg)
        + p.g2 * phase2 * (a2 @ s_eh)
    )
    return half + half.conj().T


def rk4_reference(h_fn: Callable, psi0: np.ndarray, t_span: tuple, dt: float) -> np.ndarray:
    """Classical RK4 on a state vector, renormalized each step, with every
    stage written out: k = -i H(t) y, and H(t + h) of one step reused as the
    next step's H(t).  h_fn returns H(t) as an array."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    psi = np.asarray(psi0, dtype=complex).copy()
    span = t1 - t0
    if span == 0.0:
        return psi
    n_steps = max(1, math.ceil(span / dt))
    h = span / n_steps
    t = t0
    h_start = h_fn(t)
    for _ in range(n_steps):
        k1 = -1j * (h_start @ psi)
        h_mid = h_fn(t + 0.5 * h)
        k2 = -1j * (h_mid @ (psi + 0.5 * h * k1))
        k3 = -1j * (h_mid @ (psi + 0.5 * h * k2))
        h_start = h_fn(t + h)
        k4 = -1j * (h_start @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        psi /= np.linalg.norm(psi)
        t += h
    return psi


def two_step_vacuum_reading(epsilon: float, steps: Sequence[tuple], digits: int = 50) -> dict:
    """duan_sum, n1_mean, n2_mean and fidelity after the vacuum's transformed
    modes 1 and 2 are pumped in turn by the (gamma, duration) steps, in closed
    form in decimal arithmetic at the given precision.

    In the squeezed frame the vacuum holds each mode at variance cosh(2 eps)/4,
    the pair correlated by sinh(2 eps)/4; pumping a mode at eta = exp(-gamma t)
    scales its moments by sqrt(eta) and adds (1 - eta)/4 of vacuum noise.  With
    final variances a, b and correlation x, the bare X1 - X2 and P1 + P2 have
    variance exp(-2 eps)(a + b + 2x) each, the bare occupations are
    2(c^2 a + s^2 b - 2csx) - 1/2 and 2(s^2 a + c^2 b - 2csx) - 1/2, and the
    fidelity to the target, the frame's vacuum, is 1 / (4((a + 1/4)(b + 1/4) - x^2))."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        e = decimal.Decimal(epsilon).exp()
        c, s = (e + 1 / e) / 2, (e - 1 / e) / 2
        eta1, eta2 = ((-decimal.Decimal(gamma) * decimal.Decimal(t)).exp() for gamma, t in steps)
        a, b = ((1 + eta * (c * c + s * s - 1)) / 4 for eta in (eta1, eta2))
        x = (eta1 * eta2).sqrt() * c * s / 2
        half, quarter = decimal.Decimal("0.5"), decimal.Decimal("0.25")
        return {
            "duan_sum": 2 * (a + b + 2 * x) / (e * e),
            "n1_mean": 2 * (c * c * a + s * s * b - 2 * c * s * x) - half,
            "n2_mean": 2 * (s * s * a + c * c * b - 2 * c * s * x) - half,
            "fidelity": 1 / (4 * ((a + quarter) * (b + quarter) - x * x)),
        }
