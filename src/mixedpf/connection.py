"""Edge-connection matrices, matching signs and fragment Gram tensors.

The rank story: the connection matrix of a mixed partition function is the
Gram matrix, under the supersymmetric bilinear form, of one tensor per
fragment living in the (k+2*ell)^t-dimensional mixed color space.  This
module builds those tensors, the signs of directed perfect matchings they
need (each the parity :func:`~mixedpf.algebra.permutation_sign` of arcs
listed end to end), the pairing itself, and exact ranks of finite
connection submatrices.

:func:`connection_matrix` reads the matrix off that representation: one
signed tensor sum per fragment (:func:`~mixedpf.evaluator.tensor_sums`)
and one pairing per entry, so no graph is glued for the entries.  The
tensors are sparse, so a :class:`FragmentTensor` keeps the indices of its
nonzero coefficients, and its sums and pairings visit those alone.  Its rank
r is then certified from both sides.  rank <= r is the Gram identity
Z(F1 * F2) = [sum T(F1), sum T(F2)], which the ``gram`` suite and the
tests check against glued evaluations.  rank >= r rests on glued values
alone: the rows of a row basis B span the matrix, so the principal minor
B x B of the symmetric matrix is nonsingular, and each of its entries is
evaluated again on the glued graph, by the subset sum over the whole graph:
evaluating it by its parts would cut it, which rests on the Gram identity
again.  An entry that differs raises.  The matrix is eliminated once, for
its row basis, which :func:`exact_rank` then reads.  On the
215 fragments of ``enumerate_fragments(3, 2, 5)`` under charpoly(0), of
rank 14, that is 105 glued graphs where the whole matrix would glue 23,220.

One convention deserves a note: the tensor prefactor attached to a subset
touching |S| labels is i^(|S|/2) (principal root).  For |S| divisible by 4
this is the real sign (-1)^(|S|/4); for |S| = 2 mod 4 it is the imaginary
unit, which is exactly what makes the two fragments' prefactors multiply to
(-1)^(|S|/2) and cancel the symplectic pairing signs at the glued labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import (
    GaussianRational,
    I,
    ZERO,
    as_gaussian,
    form_pairing,
    permutation_sign,
)
from . import evaluator
from .evaluator import subset_prefactor, subset_sums, tensor_sums
from .graph import (
    EulerianState,
    Fragment,
    as_fragment,
    build_G_pi,
    decompose,
    eulerian_state,
    glue,
    validate_state,
)
from .linalg import matrix_rank, row_basis
from .models import EdgeColoringModel


@dataclass(frozen=True)
class DirectedMatching:
    """A directed perfect matching on its ground set of integers."""

    arcs: tuple

    def __post_init__(self):
        arcs = tuple((int(u), int(v)) for u, v in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        seen = set()
        for u, v in arcs:
            if u == v:
                raise ValueError(f"matching arc ({u},{v}) is a loop")
            for x in (u, v):
                if x in seen:
                    raise ValueError(f"element {x} covered twice")
                seen.add(x)

    def ground_set(self) -> frozenset:
        return frozenset(x for arc in self.arcs for x in arc)


def canonical_matching_sign(m: DirectedMatching) -> int:
    """Sign of m against (s1,s2),(s3,s4),... on its sorted ground set.

    That is the parity of m's arcs listed end to end.
    """
    return permutation_sign([x for arc in m.arcs for x in arc])


def matching_sign(m: DirectedMatching, n: DirectedMatching) -> int:
    """Sign of any permutation sending one matching's arc set to the other's.

    A permutation that sends n's arcs onto m's also sends n's arcs, listed
    end to end, onto m's listed in some arc order; reordering arcs moves
    whole pairs, an even permutation.  So the sign is the product of the two
    canonical signs.
    """
    if m.ground_set() != n.ground_set():
        raise ValueError("matchings live on different ground sets")
    return canonical_matching_sign(m) * canonical_matching_sign(n)


@dataclass(frozen=True)
class FragmentTensor:
    """A vector in the t-fold tensor power of the mixed color space.

    Each slot has k + 2*ell coordinates, e_i at i-1 and f_i at k+i-1, and the
    first slot is the most significant digit of a coefficient's index: the
    coordinates of :func:`~mixedpf.algebra.signed_map`.  A vector of the
    mixed space itself is the t=1 tensor.

    ``support`` holds the ascending indices of the nonzero coefficients,
    found as they are coerced to Q(i).  It is derived, so it takes no part
    in construction, equality, hashing or repr.  A sum adds only the second
    tensor's support into a copy of the first's coefficients.
    """

    t: int
    k: int
    two_ell: int
    coeffs: tuple
    support: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        base = self.k + self.two_ell
        if len(self.coeffs) != base**self.t:
            raise ValueError("coefficient vector has wrong dimension")
        coeffs, support = [], []
        for a, c in enumerate(self.coeffs):
            c = as_gaussian(c)
            coeffs.append(c)
            if c.re or c.im:  # bool(c) without the method call: half this loop's time
                support.append(a)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "support", tuple(support))

    def __add__(self, other):
        if not isinstance(other, FragmentTensor):
            return NotImplemented
        if (self.t, self.k, self.two_ell) != (other.t, other.k, other.two_ell):
            raise ValueError("tensor shape mismatch")
        coeffs = list(self.coeffs)
        for a in other.support:
            coeffs[a] += other.coeffs[a]
        return FragmentTensor(self.t, self.k, self.two_ell, tuple(coeffs))

    @classmethod
    def zero(cls, t: int, k: int, two_ell: int) -> "FragmentTensor":
        return cls(t, k, two_ell, (ZERO,) * (k + two_ell) ** t)


def fragment_tensor(
    frag: Fragment,
    subset,
    model: EdgeColoringModel,
    state: EulerianState | None = None,
) -> FragmentTensor:
    """The Gram tensor of a fragment and one of its Eulerian subsets.

    Coefficients collect, over all colorings, the product of internal-vertex
    weights times one basis vector per label: the symmetric color's vector at
    labels off the subset, and the exterior color's f (incoming) or g
    (outgoing, expanded to a signed f) at labels on it.  The whole tensor is
    scaled by i^(|S|/2), the sign of the trail matching, and the circuit
    parity (:func:`~mixedpf.evaluator.subset_prefactor`), which multiplies
    the nonzero coefficients only.  This is the per-subset oracle of
    :func:`~mixedpf.evaluator.tensor_sums`.
    """
    frag = as_fragment(frag)
    subset = frozenset(subset)
    model.check_cap(frag)
    if state is None:
        state = eulerian_state(frag, subset, 0)
    else:
        if frozenset(state.subset) != subset:
            raise ValueError("state was built for a different subset")
        validate_state(frag, state)

    circuits, trails = decompose(state, frag)
    q = subset_prefactor(circuits, trails)
    [(coeffs, _)] = subset_sums(frag, subset, state, [model])
    if q:
        prefactor = I**q
        coeffs = [prefactor * c if c else c for c in coeffs]
    return FragmentTensor(frag.t, model.k, model.two_ell, tuple(coeffs))


def gram_pairing(t1: FragmentTensor, t2: FragmentTensor) -> GaussianRational:
    """The supersymmetric form applied factorwise across the t tensor slots
    (:func:`~mixedpf.algebra.form_pairing` through the identity's
    :func:`~mixedpf.algebra.signed_map`); at t=1 it is the form on the
    mixed space itself.  It visits the first tensor's ``support`` only, and
    returns ZERO when no term is nonzero."""
    if (t1.t, t1.k, t1.two_ell) != (t2.t, t2.k, t2.two_ell):
        raise ValueError("tensor shape mismatch in Gram pairing")
    # the coefficients are Gaussian rationals, so the total is one too unless it is 0
    identity = tuple(range(t1.t))
    total = form_pairing(t1.coeffs, t2.coeffs, t1.k, t1.two_ell, identity, support=t1.support)
    return total or ZERO


@dataclass(frozen=True)
class ConnectionMatrix:
    """A finite edge-connection submatrix over an explicit fragment family.

    ``basis`` holds the ascending indices of rows that form a basis of the
    row space (:func:`~mixedpf.linalg.row_basis`), computed once when the
    matrix is made.
    """

    t: int
    entries: tuple  # rows of GaussianRational
    basis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(row_basis(self.entries)))

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.entries) + "\n"


def connection_matrix(
    fragments, model: EdgeColoringModel, mode: str = "mixed"
) -> ConnectionMatrix:
    """Entries f(F_i * F_j) of the partition function over glued pairs.

    Each entry is the Gram pairing of the two fragments' signed tensor sums
    (:func:`~mixedpf.evaluator.tensor_sums`), so n fragments cost n sums
    and n(n+1)/2 pairings.  The entries of a row basis B of the matrix are
    then evaluated on the glued graphs as well, each by the subset sum over
    the whole graph (:func:`~mixedpf.evaluator.partition_function_many`),
    not by its parts: B x B is a nonsingular principal minor of a symmetric
    matrix, and equal glued values make the rank |B| a lower bound that
    rests on glued evaluations alone.  An entry that differs from its glued
    value raises RuntimeError.
    """
    fragments = tuple(as_fragment(f) for f in fragments)
    ts = sorted({f.t for f in fragments})
    if len(ts) > 1:
        raise ValueError(f"fragments must share one t, found {ts}")
    sums = tensor_sums(fragments, model, mode)  # refuses a bad model or mode, fragments or not
    if not fragments:
        return ConnectionMatrix(0, ())
    tensors = [FragmentTensor(ts[0], model.k, model.two_ell, tuple(c)) for c in sums]
    n = len(fragments)
    rows = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            rows[a][b] = rows[b][a] = gram_pairing(tensors[a], tensors[b])
    matrix = ConnectionMatrix(ts[0], tuple(tuple(row) for row in rows))
    basis = matrix.basis
    for i, a in enumerate(basis):
        for b in basis[i:]:
            glued = glue(fragments[a], fragments[b])
            # looked up on the module at call time, where perfbench's tracer wraps it
            [result] = evaluator.partition_function_many(glued, [model], mode)
            if result.value != rows[a][b]:
                raise RuntimeError(
                    f"connection matrix entry ({a}, {b}) is {rows[a][b]} by the "
                    f"tensor sums but {result.value} on the glued graph"
                )
    return matrix


def exact_rank(matrix) -> int:
    """Rank over Q(i) via fraction-free elimination with exact pivoting.

    A :class:`ConnectionMatrix` was eliminated once when it was made: its
    rank is the size of its row basis.  A matrix given as rows is
    eliminated here.
    """
    if isinstance(matrix, ConnectionMatrix):
        return len(matrix.basis)
    return matrix_rank(matrix)


def dglrs_constraint_sum(f, k: int) -> GaussianRational:
    """Signed sum of a graph parameter over the 6-cycle permutation family.

    For each permutation of k+1 elements, the test graph is the disjoint
    union of cycles C_(6c) over its cycle lengths; an ordinary k-color
    partition function must sum these values, weighted by permutation signs,
    to zero.  Suitable oracles (determinant of the adjacency matrix) violate
    it, which is the certificate that they are not ordinary partition
    functions.
    """
    total = ZERO
    for pi in itertools.permutations(range(k + 1)):
        value = as_gaussian(f(build_G_pi(k, pi)))
        total = total + value if permutation_sign(pi) > 0 else total - value
    return total
