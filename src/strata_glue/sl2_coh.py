"""Group cohomology of level models through the tree of lattice classes.

The tree on which SL2 of a local field acts has one vertex per similarity
class of rank-2 lattices; a ball of radius r around the standard vertex is
finite, and its distance-d shell matches the level-d projective line, which
is exactly the labeling the finite models already use.  Restricting the
cellular resolution of that tree to a representation collapses cohomology
onto a single difference map sigma^U (+) sigma^{U'} -> sigma^{Gamma_0},
written here in the Howell coordinates of the Iwahori-fixed block.  Kernel
and cokernel of that map are the only degrees that survive banality, and
inverting its 2x2 specialization is the desk-size form of the unramified
principal-series vanishing statement.  Both degrees, of that map and of a
ball's boundary alike, are read off one elimination of the map's image
rows (lambda_core.kernel_cokernel), and both maps are written as those
rows.  The boundary numbers the ball's vertices leaves first, so its
elimination has no fill and writes nothing.
"""

from fractions import Fraction

from .lambda_core import (
    _check_prime,
    ModuleMap,
    free_module,
    iso_class,
    kernel_cokernel,
    make_ring,
)
from .padic_core import SubgroupSpec, p1_size, project
from .finite_rep import fixed_points, induced_rep, unram_pair


class AcyclicityFailed(RuntimeError):
    """The principal-series difference map is not invertible over Lambda."""

    def __init__(self, matrix):
        super().__init__(f"difference map {matrix} has no inverse")
        self.matrix = matrix


# ------------------------------------------------------------------ the ball

_ROOT = (0, None)


class TreeBall:
    """Radius-r piece of the lattice-class tree around the standard vertex.

    Vertices are (distance, index) pairs: the distance-d shell is the
    level-d projective line, its points named by their indices in
    padic_core's codec, and each point names the lattice class whose
    Hermite basis has determinant p^d: rows (1, t), (0, p^d) for the point
    [1:t], rows (p^d, 0), (s, 1) for [s:1], and the standard lattice at
    the root.  Edges join a shell point to its level-(d-1) projection.
    Colors alternate with distance and name the stabilizer kind of each
    facet up to conjugacy.  A ball holds only p and r: the boundary, and
    so the homology, is written from shell offsets and projections.
    """

    __slots__ = ("p", "radius", "_vertices", "_edges", "_colors",
                 "_stabilizers", "_kids")

    def __init__(self, p, radius):
        self.p = p
        self.radius = radius
        self._vertices = self._edges = None
        self._colors = self._stabilizers = self._kids = None

    # vertices, edges, colors, stabilizers and children are built on first
    # read: the homology reads none of them

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = (_ROOT,) + tuple(
                (d, i) for d in range(1, self.radius + 1)
                for i in range(p1_size(self.p, d)))
        return self._vertices

    @property
    def edges(self):
        if self._edges is None:
            edges = [((1, i), _ROOT) for i in range(self.p + 1)]
            for d in range(2, self.radius + 1):
                edges += [((d, i), (d - 1, u)) for i, u in
                          enumerate(project(self.p, d, d - 1))]
            self._edges = tuple(edges)
        return self._edges

    @property
    def colors(self):
        if self._colors is None:
            self._colors = {v: "U" if v[0] % 2 == 0 else "Uprime"
                            for v in self.vertices}
        return self._colors

    @property
    def stabilizers(self):
        if self._stabilizers is None:
            spec = {k: SubgroupSpec(k) for k in ("U", "Uprime", "Gamma0")}
            stabs = {v: spec[c] for v, c in self.colors.items()}
            for e in self.edges:
                stabs[e] = spec["Gamma0"]
            self._stabilizers = stabs
        return self._stabilizers

    @property
    def _children(self):
        if self._kids is None:
            self._kids = {v: [] for v in self.vertices}
            for child, parent in self.edges:
                self._kids[parent].append(child)
        return self._kids

    @property
    def base_edge(self):
        return ((1, 0), _ROOT)

    def check_regular(self):
        """Assert the homogeneous tree shape; True when every count fits."""
        p = self.p
        if len(self._children[_ROOT]) != p + 1:
            raise RuntimeError("root valence is off")
        for v in self.vertices:
            d = v[0]
            kids = len(self._children[v])
            if d == 0:
                continue
            want = p if d < self.radius else 0
            if kids != want:
                raise RuntimeError(f"vertex {v} has {kids} children")
        return True

    def eta_image(self, label):
        """Translate by diag(1, pi); None when pushed outside the ball."""
        d, i = label
        p = self.p
        if d == 0:
            return (1, 0)
        md = p ** d
        if i < md:
            # [1:t] goes to [1:p*t] one shell out
            if d + 1 > self.radius:
                return None
            return (d + 1, i * p)
        if d == 1:
            return _ROOT
        # [s:1], at offset s1 = s/p in its cell, goes to [s1:1] one shell in
        s1, ml = i - md, md // p
        if s1 % p == 0:
            return (d - 1, ml + s1 // p)
        # the scaled lattice leads with a unit, so it flips branch
        return (d - 1, pow(s1, -1, ml))

    def boundary(self, ring):
        """Cellular boundary, edges -> vertices: +1 at each edge's child,
        -1 at its parent, written as each edge's image row.

        The vertex coordinates run leaves first, the reverse of the vertex
        order, so a child's coordinate comes before its parent's.  Each
        edge's image then leads with its own child's coordinate, at 1, and
        no two images lead in the same coordinate: eliminating the image
        rows files each once and writes nothing, which is Parter's
        leaves-first order, with no fill, for a tree (SIAM Review 1961).
        A coordinate is arithmetic: the point of index i on the distance-d
        shell, which follows the root and the shells before it, has
        coordinate nv - 1 - (shell offset + i), and its parent's index is
        its projection one level down.  So the images are written from
        numbers, with no vertex or edge built.  The matrix, vertex rows,
        is built only if it is read.
        """
        p, r, neg = self.p, self.radius, ring.n - 1
        nv = 1 + sum(p1_size(p, d) for d in range(1, r + 1))
        # the root's coordinate, then base, that of a shell's point 0
        root = nv - 1
        base = root - 1
        images = [{base - i: 1, root: neg} for i in range(p + 1)]
        for d in range(2, r + 1):
            up, base = base, base - p1_size(p, d - 1)
            images += [{base - i: 1, up - u: neg} for i, u in
                       enumerate(project(p, d, d - 1))]
        return ModuleMap._of_images(free_module(ring, nv - 1),
                                    free_module(ring, nv), images)

    def homology(self, ring):
        """H0 and H1 of the unaugmented cellular complex: the cokernel and
        the kernel of the boundary."""
        h1, h0 = kernel_cokernel(self.boundary(ring))
        return {0: h0, 1: h1}

    def __repr__(self):
        return (f"TreeBall(p={self.p}, r={self.radius}, "
                f"{len(self.vertices)} vertices)")


def bt_ball(p, r):
    """Ball of radius r; its vertices are point indices through level r.
    Raises BanalityViolation when p is not prime and ValueError when
    r < 1."""
    _check_prime(p)
    if r < 1:
        raise ValueError("a ball needs radius at least 1")
    return TreeBall(p, r)


# ------------------------------------------------- the two-term complex

class SSComplex:
    """Difference map sigma^U (+) sigma^{U'} -> sigma^{Gamma_0}.

    delta is written on the Howell generators of the Iwahori-fixed block:
    one source column per fixed-line generator, U columns first, the U'
    block carried with a minus sign.
    """

    __slots__ = ("u_fixed", "uprime_fixed", "gamma0_fixed", "delta")

    def __init__(self, u_fixed, uprime_fixed, gamma0_fixed, delta):
        self.u_fixed = u_fixed
        self.uprime_fixed = uprime_fixed
        self.gamma0_fixed = gamma0_fixed
        self.delta = delta

    def __repr__(self):
        return (f"SSComplex({self.delta.source.ambient} -> "
                f"{self.delta.target.ambient})")


def ss_complex(sigma):
    """Two-term fixed-point complex of a level model.

    The fixed spaces come in cell coordinates (finite_rep.fixed_points).
    Each Gamma0 generator is a cell indicator, of the big cell [1:t] or of
    the [s:1], that leads with 1, so a source generator's coordinates are
    its entries at the Gamma0 pivots, and delta is written down, not
    solved for, at the same cost at every level: ((1, -1),
    (1, -c2 c1^-1)) on an induced model, ((1, -1),) on the trivial one and
    1x0 on Steinberg, whose U and U' blocks vanish.
    """
    ring = sigma.ring
    u_fixed = fixed_points(sigma, SubgroupSpec("U"))
    uprime_fixed = fixed_points(sigma, SubgroupSpec("Uprime"))
    gamma0_fixed = fixed_points(sigma, SubgroupSpec("Gamma0"))
    pivots = [next(j for j, x in enumerate(w) if x)
              for w in gamma0_fixed.witness_rows]
    n = ring.n
    cols = ([{i: x for i, j in enumerate(pivots) if (x := w[j] % n)}
             for w in u_fixed.witness_rows]
            + [{i: x for i, j in enumerate(pivots) if (x := -w[j] % n)}
               for w in uprime_fixed.witness_rows])
    delta = ModuleMap._of_images(free_module(ring, len(cols)),
                                 free_module(ring, len(pivots)), cols)
    return SSComplex(u_fixed, uprime_fixed, gamma0_fixed, delta)


def _two_degrees(ss):
    h0, h1 = kernel_cokernel(ss.delta)
    return {0: h0, 1: h1}


def sl2_cohomology(sigma):
    """Kernel and cokernel of the difference map; higher degrees vanish."""
    return _two_degrees(ss_complex(sigma))


def cohomology_report(sigma):
    """JSON-shaped invariant factors of the two surviving degrees."""
    h = sl2_cohomology(sigma)
    return {"H0": iso_class(h[0]), "H1": iso_class(h[1])}


# --------------------------------------------------------------- acyclicity

def ps1_acyclicity_check(p, n, sqrt_q, level=2, chi=None):
    """Both degrees of the half-density induced model must vanish.

    The default character is the inverse square-root modulus pair; passing
    another unit pair turns the check into its own control experiment.  The
    determinant of the 2x2 difference map is surfaced as "unit" but its
    exact value is deliberately not certified.
    """
    ring = make_ring(n, p, sqrt_q)
    if chi is None:
        chi = unram_pair(ring, Fraction(1, 2), Fraction(-1, 2))
    sigma = induced_rep(ring, chi, level)
    ss = ss_complex(sigma)
    mat = ss.delta.matrix
    if (mat.nrows, mat.cols) != (2, 2):
        raise RuntimeError("difference map is not the expected 2x2 block")
    e = mat.entries
    det = (e[0][0] * e[1][1] - e[0][1] * e[1][0]) % n
    h = _two_degrees(ss)
    if not (h[0].is_zero() and h[1].is_zero()):
        raise AcyclicityFailed(e)
    return {"p": p, "n": n, "sqrt_q": sqrt_q, "level": level,
            "matrix": e, "unit": det,
            "H0": iso_class(h[0]), "H1": iso_class(h[1]),
            "vanishes": True}
