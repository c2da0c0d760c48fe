"""Abstract face lattices: simplices, products, cones, and slices.

Everything here is purely combinatorial.  A face is a nonempty frozenset
of generator labels and carries an explicit dimension; the order is
support inclusion.  The empty face stays implicit (dimension -1), it only
participates in cone building.  No coordinates, no hulls.
"""

from __future__ import annotations

import heapq
from functools import cached_property, reduce
from operator import and_
from typing import Dict, FrozenSet, Hashable, Mapping, Tuple

Face = FrozenSet[Hashable]


class FacePoset:
    """Finite graded poset of faces ordered by inclusion of supports, the faces
    in the order of the mapping given; covers(), is_graded() and iso all read
    one cached bitset scan of it, _scan."""

    def __init__(self, dims: Mapping[Face, int]):
        self._dims: Dict[Face, int] = {}
        for face, d in dims.items():
            face = frozenset(face)
            if not face:
                raise ValueError("the empty face is implicit, do not list it")
            self._dims[face] = int(d)
        self._faces: Tuple[Face, ...] = tuple(self._dims)

    @property
    def faces(self) -> Tuple[Face, ...]:
        return self._faces

    def dim_of(self, face: Face) -> int:
        return self._dims[frozenset(face)]

    @property
    def dim(self) -> int:
        return max(self._dims.values(), default=-1)

    def __len__(self) -> int:
        return len(self._faces)

    def f_vector(self) -> Tuple[int, ...]:
        """Face counts by dimension, from 0 up to the top dimension."""
        counts = [0] * (self.dim + 1)
        for d in self._dims.values():
            counts[d] += 1
        return tuple(counts)

    def maximal_faces(self) -> Tuple[Face, ...]:
        out = []
        for f in self._faces:
            if not any(f < g for g in self._faces):
                out.append(f)
        return tuple(out)

    def has_unique_max(self) -> bool:
        return len(self.maximal_faces()) == 1

    @cached_property
    def _scan(self):
        """((dims, up, down), monotone): the cover graph over face positions, each
        list ascending, as polytope._isomorphisms takes it, and whether every
        strict inclusion raises the dimension."""
        faces, dims = self._faces, self._dims
        having: Dict[Hashable, int] = {}  # label -> bitset of the faces holding it
        of_dim: Dict[int, int] = {}  # dimension -> bitset of its faces
        for i, f in enumerate(faces):
            for label in f:
                having[label] = having.get(label, 0) | 1 << i
            of_dim[dims[f]] = of_dim.get(dims[f], 0) | 1 << i
        at_most = {d: sum(v for e, v in of_dim.items() if e <= d) for d in of_dim}
        up, down = [[] for _ in faces], [[] for _ in faces]
        monotone = True
        for i, f in enumerate(faces):
            above = reduce(and_, map(having.__getitem__, f)) & ~(1 << i)  # strict supersets
            if above & at_most[dims[f]]:
                monotone = False
            covers = above & of_dim.get(dims[f] + 1, 0)
            while covers:
                j = (covers & -covers).bit_length() - 1
                up[i].append(j)
                down[j].append(i)
                covers &= covers - 1
        return ([dims[f] for f in faces], up, down), monotone

    def covers(self) -> Tuple[Tuple[Face, Face], ...]:
        """All (lower, upper) pairs with inclusion and dimension gap one."""
        faces, up = self._faces, self._scan[0][1]
        return tuple((f, faces[j]) for f, js in zip(faces, up) for j in js)

    def is_graded(self) -> bool:
        """Operational grading check used before isomorphism testing.

        Inclusion must be strictly dimension increasing, every non-minimal
        face needs a subface one dimension down, and every non-maximal
        face a superface one dimension up.
        """
        (dims, up, down), monotone = self._scan
        top, lo = self.dim, min(dims, default=0)
        return monotone and all(
            (below or d == lo) and (above or d == top) for d, above, below in zip(dims, up, down)
        )


EMPTY = FacePoset({})


def simplex(n: int) -> FacePoset:
    """Face lattice of the n-simplex on vertex labels ("v", 0..n): a slice
    with every vertex on the plane."""
    if n < 0:
        raise ValueError(f"simplex dimension must be nonnegative, got n={n}")
    return _labelled([("v", i) for i in range(n + 1)], _slice_faces(0, 0, (1 << n + 1) - 1))


def product(p: FacePoset, q: FacePoset) -> FacePoset:
    """Face lattice of the product; dimensions add.

    Supports are tagged left/right so inclusion remains componentwise.
    """
    if not p.has_unique_max() or not q.has_unique_max():
        raise ValueError("product needs factors with a unique maximal face")
    dims = {}
    for f in p.faces:
        left = frozenset(("L", a) for a in f)
        for g in q.faces:
            right = frozenset(("R", b) for b in g)
            dims[left | right] = p.dim_of(f) + q.dim_of(g)
    return FacePoset(dims)


def cone(p: FacePoset, times: int = 1) -> FacePoset:
    """Iterated cone; each round joins one fresh apex, a new object(), to every face.

    The implicit empty face gives the apex itself, so coning the empty
    lattice m times produces the (m-1)-simplex.
    """
    if times < 0:
        raise ValueError(f"cannot cone a negative number of times, got times={times}")
    dims = {f: p.dim_of(f) for f in p.faces}
    for _ in range(times):
        apex = object()
        joined = {frozenset({apex}): 0}
        for f, d in dims.items():
            joined[f | {apex}] = d + 1
        dims.update(joined)
    return FacePoset(dims)


def _submasks(mask: int) -> list:
    """Every submask of mask, the empty one first."""
    out = [0]
    while mask:
        low = mask & -mask
        out += [sub | low for sub in out]
        mask ^= low
    return out


def _slice_faces(plus: int, minus: int, zero: int) -> list:
    """(mask, dim) of each face of the simplex on plus | minus | zero cut by a
    hyperplane through the zero vertices, in (dim, mask) order, so the whole,
    when it is a face, comes last.  A face is a nonempty part of zero, or a
    part of zero with nonempty parts of both open sides, which the cut
    leaves one dimension short."""
    zs = _submasks(zero)
    faces = [(z, z.bit_count() - 1) for z in zs[1:]]
    faces += [(f, f.bit_count() - 2) for p in _submasks(plus)[1:] for m in _submasks(minus)[1:]
              for f in [p | m | z for z in zs]]
    return sorted(faces, key=lambda face: face[::-1])


def _labelled(labels: list, faces) -> FacePoset:
    """The poset of (mask, dim) faces, each the labels of its mask's bits."""
    return FacePoset({frozenset(lab for i, lab in enumerate(labels) if mask >> i & 1): d
                      for mask, d in faces})


def slice_lattice(n_plus: int, n_minus: int, n_zero: int) -> FacePoset:
    """Face lattice of a simplex sliced by a hyperplane (_slice_faces), with
    n_plus generators strictly above it, n_minus strictly below, n_zero on it."""
    if n_plus < 1 or n_minus < 1:
        raise ValueError("need at least one generator on each open side, "
                         f"got n_plus={n_plus}, n_minus={n_minus}")
    if n_zero < 0:
        raise ValueError(f"n_zero must be nonnegative, got n_zero={n_zero}")
    labels = ([("+", i) for i in range(n_plus)] + [("-", i) for i in range(n_minus)]
              + [("0", i) for i in range(n_zero)])
    plus, both = (1 << n_plus) - 1, (1 << n_plus + n_minus) - 1
    return _labelled(labels, _slice_faces(plus, both ^ plus, ((1 << len(labels)) - 1) ^ both))


def _isomorphisms(p, q, first: bool = False) -> list:
    """Every isomorphism of the cover graph p onto q, or only the first one found.

    A graph is (dims, up, down), int-indexed lists: cell i has dimension
    dims[i] and covers up[i], and is a cover of down[i].  An isomorphism is
    a list sending cell i of p to cell image[i] of q that keeps dimensions
    and maps up onto up and down onto down.  A cell's colour is (dim, up
    count, down count).  The cells are placed in an order fixed before the
    search: next the one with the most placed neighbours, then the higher
    dimension, then the lower index, and a new component at its rarest
    colour.  A cell's candidates are the same-side neighbours of one placed
    neighbour's image, a root's every cell of its colour; a candidate is
    taken when it is unused, has the cell's colour and lies next to every
    placed neighbour's image on the same side.
    """
    (dims, up, down), (dims_q, up_q, down_q) = p, q
    colour = list(zip(dims, map(len, up), map(len, down)))
    colour_q = list(zip(dims_q, map(len, up_q), map(len, down_q)))
    if sorted(colour) != sorted(colour_q):
        return []
    n = len(colour)
    if not n:
        return [[]]
    of_colour: Dict[tuple, list] = {}
    for j, c in enumerate(colour_q):
        of_colour.setdefault(c, []).append(j)
    sides, sides_q = (up, down), (up_q, down_q)
    # the order: per position a cell, its anchor (a placed neighbour and the side of
    # the anchor's image that lists the candidates) and the other placed neighbours,
    # each with the side of a candidate that must hold its image
    order, anchors, checks = [], [], []
    roots = iter(sorted(range(n), key=lambda x: (len(of_colour[colour[x]]), -dims[x], x)))
    seen, count, heap = [False] * n, [0] * n, []
    while len(order) < n:
        while heap and seen[heap[0][2]]:
            heapq.heappop(heap)
        x = heapq.heappop(heap)[2] if heap else next(x for x in roots if not seen[x])
        seen[x] = True
        placed = [(y, s) for s in (0, 1) for y in sides[s][x] if seen[y]]
        order.append(x)
        anchors.append((placed[0][0], sides_q[1 - placed[0][1]]) if placed else None)
        checks.append([(y, sides_q[s]) for y, s in placed[1:]])
        for y in (*up[x], *down[x]):
            if not seen[y]:
                count[y] += 1
                heapq.heappush(heap, (-count[y], -dims[y], y))
    found: list = []
    image, used, tries = [-1] * n, [False] * n, [None] * n
    pos = 0
    while pos >= 0:
        x = order[pos]
        if tries[pos] is None:
            anchor = anchors[pos]
            tries[pos] = iter(anchor[1][image[anchor[0]]] if anchor else of_colour[colour[x]])
        else:  # back from a deeper position, or from a whole map
            used[image[x]] = False
        for j in tries[pos]:
            if not used[j] and colour_q[j] == colour[x]:
                image[x] = j
                if all(image[y] in side[j] for y, side in checks[pos]):
                    break
        else:
            tries[pos] = None
            pos -= 1
            continue
        used[j] = True
        if pos < n - 1:
            pos += 1
        else:
            found.append(image[:])
            if first:
                break
    return found


def iso(p: FacePoset, q: FacePoset) -> bool:
    """Graded poset isomorphism: one search of the cover graphs (_isomorphisms).

    Label bijections are useless across constructions (a slice and a
    simplex can be isomorphic on different generator sets), so only the
    cover structure is compared.
    """
    if len(p) != len(q):
        return False
    if p.f_vector() != q.f_vector():
        return False
    for name, r in (("p", p), ("q", q)):
        if not r.is_graded():
            raise ValueError(f"iso needs graded posets; {name} is not, f-vector {r.f_vector()}")
    return bool(_isomorphisms(p._scan[0], q._scan[0], first=True))
