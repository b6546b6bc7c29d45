"""Hermitian calculus: decompositions, density checks, random densities;
plus the log/exp/partial-trace oracles kept in the test helpers."""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qib import benchmarks, engine, linalg, model, qdib
from qib.exceptions import InvariantError, NumericalError
from qib.experiments.ensembles import SuffStatsSpec
from qib.experiments.suffstats import suffstats_pipeline
from qib.model import ObjectiveConfig
from qib.rng import derive_rng

import reference
from helpers import (
    charpoly_eigenvalues,
    matrix_exp,
    matrix_log_supported,
    partial_trace,
    random_cq_state,
    random_density,
    random_diagonal_density,
    random_hermitian,
    random_unitary,
)


@given(st.integers(0, 200), st.integers(2, 5))
def test_eig_hermitian_reconstructs(seed, dim):
    gen = derive_rng(seed, "eig")
    h = random_hermitian(dim, gen)
    w, v = linalg.eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    rebuilt = v @ np.diag(w) @ np.conj(v.T)
    assert np.max(np.abs(rebuilt - h)) < 1e-10
    gram = np.conj(v.T) @ v
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-10


@pytest.mark.parametrize("seed", range(25))
def test_eigenvalues_match_characteristic_polynomial(seed):
    # independent oracle: trace-recursion coefficients + np.roots
    gen = derive_rng(seed, "charpoly")
    dim = int(gen.integers(2, 5))
    h = random_hermitian(dim, gen)
    w, _ = linalg.eig_hermitian(h)
    ref = charpoly_eigenvalues(h)
    assert np.max(np.abs(w - ref)) < 1e-7


def test_eig_hermitian_stacked_matches_loop():
    gen = derive_rng(3, "stack")
    for dim in (2, 3):
        hs = np.stack([random_hermitian(dim, gen) for _ in range(5)])
        w, v = linalg.eig_hermitian(hs)
        assert w.shape == (5, dim)
        for i in range(5):
            wi, _ = linalg.eig_hermitian(hs[i])
            assert np.max(np.abs(w[i] - wi)) < 1e-12


def _qubit_operator(kind, gen, exponent):
    """One Hermitian 2 x 2 matrix of a kind the closed form must get right."""
    a, c = gen.uniform(-1.0, 1.0, 2)
    if kind == "diagonal, a < c":
        return np.diag([min(a, c), max(a, c)]).astype(complex)
    if kind == "diagonal, a > c":
        return np.diag([max(a, c), min(a, c)]).astype(complex)
    if kind == "identity multiple":
        return a * np.eye(2, dtype=complex)
    if kind == "pure state":
        psi = gen.normal(size=2) + 1j * gen.normal(size=2)
        return np.outer(psi, np.conj(psi)) / np.vdot(psi, psi).real
    if kind == "tiny off-diagonal":
        b = 10.0 ** -exponent * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi))
        return np.array([[a, np.conj(b)], [b, c]])
    if kind == "huge entries":
        return 10.0 ** (exponent / 2) * random_hermitian(2, gen)
    # Near the log floor: eigenvalues LOG_FLOOR * (1 +- u) and the rest of a unit trace.
    low = linalg.LOG_FLOOR * (1.0 + a)
    return (u := random_unitary(2, gen)) @ np.diag([low, 1.0 - low]) @ np.conj(u.T)


@given(
    st.sampled_from([
        "diagonal, a < c", "diagonal, a > c", "identity multiple", "pure state",
        "tiny off-diagonal", "huge entries", "near the floor",
    ]),
    st.sampled_from([(), (1,), (4,), (2, 3)]),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
def test_eig_hermitian_2x2_closed_form_eigenvalues_match_lapack(kind, lead, exponent, seed):
    gen = np.random.default_rng(seed)
    h = np.stack([_qubit_operator(kind, gen, exponent) for _ in range(int(np.prod(lead)))])
    h = h.reshape(lead + (2, 2))
    # Only the lower triangle is read, as by LAPACK's UPLO='L'.
    given_h = h.copy()
    given_h[..., 0, 1] = gen.normal(size=lead)
    w = linalg.eig_hermitian(given_h, vectors=False)
    scale = 8.0 * np.finfo(float).eps * np.linalg.norm(h, axis=(-2, -1))[..., None]
    assert np.all(np.diff(w, axis=-1) >= 0)
    assert np.all(np.abs(w - np.linalg.eigvalsh(given_h)) <= scale)


@pytest.mark.parametrize("lead", [(), (1,), (6,), (2, 3)])
def test_eig_hermitian_2x2_eigenvectors_are_lapacks(lead):
    # Only eigenvalue-only calls take the closed form; a call for eigenvectors
    # returns numpy's eigh bit for bit, whatever the stack's shape.
    gen = derive_rng(len(lead), "eigh2")
    h = np.stack([random_hermitian(2, gen) for _ in range(int(np.prod(lead)))]).reshape(lead + (2, 2))
    for got, want in zip(linalg.eig_hermitian(h), np.linalg.eigh(h), strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(
    st.sampled_from([1, 2, 3, 5]),
    st.sampled_from([(), (1,), (3,), (2, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_eig_hermitian_reads_only_the_lower_triangle(dim, lead, seed):
    # Callers pass matrices Hermitian only up to round-off; whatever lies above
    # the diagonal, the result is that of the Hermitian matrix of the lower triangle.
    gen = np.random.default_rng(seed)
    shape = lead + (dim, dim)
    lower = np.tril(gen.standard_normal(shape) + 1j * gen.standard_normal(shape), -1)
    diag = gen.standard_normal(lead + (dim,))[..., None, :] * np.eye(dim)
    mirrored = diag + lower + np.conj(np.swapaxes(lower, -1, -2))
    scrambled = diag + lower + np.triu(gen.standard_normal(shape) + 1j * gen.standard_normal(shape), 1)
    w, v = linalg.eig_hermitian(scrambled)
    want_w, want_v = linalg.eig_hermitian(mirrored)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert np.array_equal(linalg.eig_hermitian(scrambled, vectors=False), linalg.eig_hermitian(mirrored, vectors=False))


def _softmax(w):
    shifted = np.exp(w - w.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


_FUNCTIONS = {
    "identity": lambda w: w,
    "log_floor": linalg.log_floor,
    "exp": lambda w: np.exp(w - w.max(axis=-1, keepdims=True)),
    "softmax": _softmax,
    "floored log-softmax": lambda w: linalg.log_floor(_softmax(w)),
}


def _qubit_spectrum(kind, gen, size):
    """(size, 2) eigenvalues of a kind Sylvester's formula must get right."""
    a, b = gen.uniform(-1.0, 1.0, (2, size))
    if kind == "c I":
        return np.column_stack([a, a])
    if kind == "zero":
        return np.zeros((size, 2))
    if kind == "gap 1e-14":
        return np.column_stack([a, a + 1e-14 * (1.0 + b)])
    if kind == "below the floor":
        # One eigenvalue well under LOG_FLOOR (or 0), one of order 1.
        return np.column_stack([linalg.LOG_FLOOR * 0.01 * (1.0 + b), 0.5 + 0.5 * a])
    if kind == "spread 400":
        return np.column_stack([a, a - 400.0 * (1.0 + b) / 2.0])
    return np.column_stack([a, b])


@given(
    st.sampled_from(["random", "c I", "zero", "gap 1e-14", "below the floor", "spread 400"]),
    st.sampled_from(sorted(_FUNCTIONS)),
    st.sampled_from([(), (1,), (6,), (2, 3)]),
    st.integers(0, 2**32 - 1),
)
def test_eig_lift_2x2_closed_form_matches_lapack(kind, name, lead, seed):
    # Sylvester's formula from the closed-form eigenvalues against V f(w) V^H
    # from LAPACK's eigensystem, within 1e-12 max|f| per matrix; exactly Hermitian.
    gen = np.random.default_rng(seed)
    size = int(np.prod(lead))
    u = linalg.haar_unitary(gen.standard_normal((size, 2, 2)) + 1j * gen.standard_normal((size, 2, 2)))
    h = ((u * _qubit_spectrum(kind, gen, size)[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))).reshape(lead + (2, 2))
    f = _FUNCTIONS[name]
    w, lift = linalg.eig_lift(h)
    got = lift(f(w))
    ref_w, ref_v = np.linalg.eigh(h)  # reads the lower triangle, as eig_lift does
    want = (ref_v * f(ref_w)[..., None, :]) @ np.conj(np.swapaxes(ref_v, -1, -2))
    scale = 1e-12 * np.abs(f(ref_w)).max(axis=-1)
    assert got.shape == lead + (2, 2) and got.dtype == np.complex128
    assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= scale)
    assert np.all(got[..., 0, 0].imag == 0) and np.all(got[..., 1, 1].imag == 0)
    assert np.array_equal(got[..., 0, 1], np.conj(got[..., 1, 0]))


def test_every_eigendecomposition_goes_through_linalg(monkeypatch):
    """No module but linalg calls numpy's eigensolvers: eig_hermitian is the
    one entry point, and with it the one reading of Hermiticity."""
    callers = []

    def recorded(solver):
        def call(*args, **kwargs):
            callers.append(os.path.realpath(sys._getframe(1).f_code.co_filename))
            return solver(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    state = random_cq_state(3, size_x=4, dim_y=2, tag="owner")
    for dim_t in (2, 3):
        engine.run_qib(state, ObjectiveConfig(alpha=1.0, beta=3.0, dim_t=dim_t, max_iters=3))
    qdib.run_qdib(state, ObjectiveConfig(alpha=0.0, beta=3.0, dim_t=3, max_iters=3))
    suffstats_pipeline(SuffStatsSpec(size_x1=3, size_x2=2, nu=25.0), max_iters=3)
    copy = benchmarks.copy_state(3)
    model.holevo_information(copy)
    reference.brute_force_classical_opt(copy, 2, 1.0, 2.0)
    assert callers and set(callers) == {os.path.realpath(linalg.__file__)}, set(callers)


def test_qubit_suffstats_asks_for_no_eigenvectors(monkeypatch):
    # Every spectrum a qubit suffstats request reads (the conditionals, rho_Y in
    # the Holevo information and the baseline's analysis) is eigenvalues only.
    asked = []
    eig = linalg.eig_hermitian

    def recorded(h, vectors=True):
        asked.append(vectors)
        return eig(h, vectors)

    monkeypatch.setattr(linalg, "eig_hermitian", recorded)
    suffstats_pipeline(SuffStatsSpec(size_x1=3, size_x2=2, nu=25.0), max_iters=3)
    assert asked and not any(asked)


def test_one_blas_thread_pins_and_restores_the_count():
    blas = linalg._openblas()
    if blas is None:  # a numpy without the bundled OpenBLAS setter: nothing to pin
        with linalg.one_blas_thread() as pinned:
            assert pinned is False
        return
    get, put = blas
    before = get()
    put(2)  # OpenBLAS may clamp this; the count read back is the one to restore
    try:
        count = get()
        with pytest.raises(ValueError, match="in flight"), linalg.one_blas_thread() as pinned:
            assert pinned is True and get() == 1
            raise ValueError("in flight")
        assert get() == count
    finally:
        put(before)


@pytest.mark.parametrize("first_out", ["first-in", "second-in"])
def test_overlapping_blas_pins_restore_the_count_once(monkeypatch, first_out):
    """Two threads hold overlapping pins and leave in either order: the count
    stays 1 while either holds it, and the last to leave restores the old one."""
    count, sets = [3], []

    def put(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(linalg, "_openblas", lambda: (lambda: count[0], put))
    inside = {name: threading.Event() for name in ("first-in", "second-in")}
    leave = {name: threading.Event() for name in inside}
    failures = []

    def hold(name):
        try:
            with linalg.one_blas_thread() as pinned:
                inside[name].set()
                assert pinned is True and leave[name].wait(30)
        except BaseException as exc:
            failures.append(exc)

    threads = {name: threading.Thread(target=hold, args=(name,)) for name in inside}
    counts = []
    for name in inside:
        threads[name].start()
        assert inside[name].wait(30)
        counts.append(count[0])
    for name in (first_out, *(n for n in inside if n != first_out)):
        leave[name].set()
        threads[name].join(30)
        counts.append(count[0])
    assert not failures
    assert counts == [1, 1, 1, 3] and sets == [1, 3]


def test_openblas_lookup_without_the_symbols(monkeypatch):
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: object())
    assert linalg._openblas.__wrapped__() is None


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_hermitian_rejects_non_finite_input(dim, bad):
    h = np.stack([np.eye(dim, dtype=complex)] * 3)
    h[1, -1, 0] = bad
    for vectors in (True, False):
        with pytest.raises(NumericalError, match="not finite"):
            linalg.eig_hermitian(h, vectors)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_one_2x2_matrix_rejects_non_finite_input(entry, bad):
    # One matrix takes eig_lift's Python-float path, which keeps the check.
    h = np.eye(2, dtype=complex)
    h[entry] = bad
    for call in (linalg.eig_lift, linalg.floored_log):
        with pytest.raises(NumericalError, match=r"^eigensolver input of shape \(2, 2\) is not finite$"):
            call(h)


@given(st.integers(0, 2**32 - 1), st.sampled_from([np.float64, np.complex128]))
def test_one_2x2_matrix_lifts_as_its_stack(seed, dtype):
    # The Python-float path against the stacked closed form: the same formulas
    # but for the hypot, so within a few ulps on a spectrum at or above 1;
    # real input stays real.
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((2, 2)) + (1j * gen.standard_normal((2, 2)) if dtype is np.complex128 else 0.0)
    h = a @ np.conj(a.T) + np.eye(2)
    w, log = linalg.floored_log(h)
    ws, logs = linalg.floored_log(h[None])
    assert w.shape == (2,) and log.shape == (2, 2) and log.dtype == dtype
    assert np.abs(w - ws[0]).max() <= 1e-14 * w[1] and np.abs(log - logs[0]).max() <= 1e-13
    assert np.all(log.diagonal().imag == 0) and np.array_equal(log[0, 1], np.conj(log[1, 0]))


def test_eig_hermitian_reports_a_lapack_failure(monkeypatch):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    for vectors in (True, False):
        with pytest.raises(NumericalError, match=r"^eigensolver failed on shape \(3, 3\): Eigenvalues did not converge$"):
            linalg.eig_hermitian(np.eye(3), vectors)


def test_matrix_log_exp_roundtrip():
    gen = derive_rng(0, "roundtrip")
    h = random_hermitian(4, gen)
    assert np.max(np.abs(matrix_log_supported(matrix_exp(h)) - h)) < 1e-9
    rho = random_density(4, gen)
    back = matrix_exp(matrix_log_supported(rho))
    assert np.max(np.abs(back - rho)) < 1e-9


def test_matrix_log_floors_null_directions():
    rho = np.diag([1.0, 0.0]).astype(complex)
    for log in (matrix_log_supported(rho), linalg.floored_log(rho)[1]):
        w = np.sort(np.linalg.eigvalsh(log))
        assert abs(w[1]) < 1e-12
        assert abs(w[0] - np.log(1e-12)) < 1e-9


def test_matrix_exp_overflow_guard():
    with pytest.raises(NumericalError):
        matrix_exp(np.diag([800.0, 0.0]).astype(complex))


@pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (2, 2)])
def test_partial_trace_of_product(da, db):
    gen = derive_rng(da * 10 + db, "ptrace")
    a = random_density(da, gen)
    b = random_density(db, gen)
    m = np.kron(a, b)
    assert np.max(np.abs(partial_trace(m, (da, db), keep="first") - a)) < 1e-12
    assert np.max(np.abs(partial_trace(m, (da, db), keep="second") - b)) < 1e-12


def test_partial_trace_preserves_trace_and_is_linear():
    gen = derive_rng(9, "ptrace-lin")
    m1 = random_hermitian(6, gen)
    m2 = random_hermitian(6, gen)
    for keep in ("first", "second"):
        t1 = partial_trace(m1, (2, 3), keep=keep)
        assert abs(np.trace(t1) - np.trace(m1)) < 1e-12
        combo = partial_trace(2.0 * m1 - 0.5 * m2, (2, 3), keep=keep)
        ref = 2.0 * t1 - 0.5 * partial_trace(m2, (2, 3), keep=keep)
        assert np.max(np.abs(combo - ref)) < 1e-12


def test_check_density_rejects_bad_matrices():
    good = np.diag([0.5, 0.5]).astype(complex)
    linalg.check_density(good)
    for shape in ((2,), (2, 3)):
        with pytest.raises(InvariantError, match=rf"^matrix: expected a square matrix, got shape \({shape[0]},"):
            linalg.check_density(np.ones(shape))
    with pytest.raises(InvariantError, match="trace"):
        linalg.check_density(2.0 * good)
    with pytest.raises(InvariantError, match="mylabel"):
        linalg.check_density(np.diag([1.5, -0.5]).astype(complex), label="mylabel")
    skew = good.copy()
    skew[0, 1] = 0.3
    with pytest.raises(InvariantError):
        linalg.check_density(skew)
    for bad in (np.nan, np.inf):
        poisoned = good.copy()
        poisoned[1, 1] = bad
        with pytest.raises(InvariantError, match="not Hermitian"):
            linalg.check_density(poisoned)
    # A stack names its first failing matrix, with the same checks in order.
    stack = np.stack([good] * 4)
    linalg.check_density(stack, label="s")
    for bad, message in (
        (skew, "not Hermitian"),
        (2.0 * good, "trace"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (poisoned, "not Hermitian"),
    ):
        broken = stack.copy()
        broken[2] = bad
        broken[3] = 2.0 * good
        with pytest.raises(InvariantError, match=rf"^s\[2\]: {message}"):
            linalg.check_density(broken, label="s")


def test_random_unitary_is_unitary_and_seeded():
    u1 = random_unitary(4, derive_rng(7, "u"))
    u2 = random_unitary(4, derive_rng(7, "u"))
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(np.conj(u1.T) @ u1 - np.eye(4))) < 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 4, 4), (2, 2), (3, 2, 2)])
def test_haar_unitary_other_sizes_are_lapacks_qr(shape):
    gen = derive_rng(len(shape), "qr")
    z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    lq, lr = np.linalg.qr(z)
    ld = np.diagonal(lr, axis1=-2, axis2=-1)
    assert np.array_equal(linalg.haar_unitary(z), lq * (ld / np.abs(ld))[..., None, :])


@pytest.mark.parametrize("classical", [False, True])
def test_random_density_is_valid(classical):
    draw = random_diagonal_density if classical else random_density
    rho = draw(3, derive_rng(2, "rho"))
    linalg.check_density(rho)
    if classical:
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0


@pytest.mark.parametrize("dim", [3, 100])
def test_diag_embed_reconstructs_diagonals(dim):
    gen = derive_rng(dim, "embed")
    d = gen.random((7, dim))
    out = linalg.diag_embed(d)
    assert out.shape == (7, dim, dim)
    assert out.flags["C_CONTIGUOUS"]
    for i in range(7):
        assert np.array_equal(out[i], np.diag(d[i]).astype(np.complex128))


def _entropy_clip(w):
    """The entropy with eigenvalues clipped at zero first, as it was written
    before the clip was found redundant."""
    w = np.clip(np.asarray(w, dtype=np.float64), 0.0, None)
    return -np.sum(np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0), axis=-1)


@pytest.mark.parametrize("seed", range(5))
def test_entropy_equals_the_clip_form_bit_for_bit(seed):
    gen = derive_rng(seed, "entropy")
    for width in (4, 2):  # a pair is summed apart from np.sum; it must keep its bits
        w = gen.dirichlet(np.ones(width), size=(3, 6))
        w[gen.random(w.shape) < 0.3] = 0.0  # exact zeros
        w[gen.random(w.shape) < 0.2] = -0.0
        w[gen.random(w.shape) < 0.2] = -gen.random() * 1e-16  # negative round-off
        w[0, 0] = 0.0  # an all-zero row
        w[1, 1] = -0.0
        w[2, 2] = [-1e-17, 0.0, -0.0, -3e-18][:width]
        for spectra in (w, w[0], w[0, 0], w.reshape(-1)):
            got, ref = linalg.entropy(spectra), _entropy_clip(spectra)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        assert np.signbit(linalg.entropy(w[0, 0]))  # an all-zero row has entropy -0.0
