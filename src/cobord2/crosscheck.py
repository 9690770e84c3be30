"""The functor's numeric cross-check: sampled chart points on the locus
of every face of a normal form, and their membership in a face.

This is the half of the functor that needs the SU(2) holonomy charts,
kept apart from the symbolic evaluation in functor so that evaluating,
comparing normal forms or running the biset oracle never loads charts,
su2 or the quaternion kernel.  functor.invariance_check imports this
module when it is called, and functor answers membership,
sample_face_points, component_points, chart_for and MEMBERSHIP_TOL by
importing it on first use.

A face's sample points are one batch of chart points, a trial per lane
(see charts), and a membership residual is the largest over the
lanes."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from cobord2 import charts as ch
from cobord2 import su2
from cobord2.charts import ChartPoint, ModuliChart
from cobord2.cobordism import SurfComponent
from cobord2.symcat import CorrSymbol, SpaceSymbol


def chart_for(comp: SurfComponent) -> ModuliChart:
    """The chart of one component: boundary order is incoming labels
    then outgoing, each alphabetical."""
    return ModuliChart(comp.genus, comp.boundary_labels, frozenset(c.label for c in comp.into))


# --- numeric membership -------------------------------------------------------------


MEMBERSHIP_TOL = 1e-9  # largest gauge or locus residual a member point may have


def component_points(sym: SpaceSymbol, seed, zero_thetas=False) -> dict:
    """Random admissible chart points per component of a symbol, one
    per lane of the uint64 seed array."""
    return {
        i: ch.random_point(chart_for(c), su2.mix_seed(seed, i), zero_thetas=zero_thetas)
        for i, c in enumerate(sym.components)
    }


def membership(face: CorrSymbol, src_pts, tgt_pts, tol: float = MEMBERSHIP_TOL):
    """(member, residual) of a pair of point batches in a correspondence
    symbol; the residual is the largest over the lanes.

    src_pts / tgt_pts: per symbol in the face boundary, a dict
    component index -> ChartPoint."""
    kind = face.kind
    if kind == "diagonal":
        return _diag_membership(src_pts, tgt_pts, tol)
    if kind == "zero_section":
        pts = src_pts if face.transposed else tgt_pts
        worst = 0.0
        for comp_pts in pts:
            for p in comp_pts.values():
                worst = max(worst, su2.largest(p.thetas.norm()),
                            su2.largest(ch.theta1_of(p).norm()))
        return worst <= tol, worst
    if kind == "identification":
        if face.transposed:
            return _ident_membership(tgt_pts, src_pts, face, tol)
        return _ident_membership(src_pts, tgt_pts, face, tol)
    if kind == "hol_trivial":
        if face.transposed:
            return _holtriv_membership(tgt_pts, src_pts, face, tol)
        return _holtriv_membership(src_pts, tgt_pts, face, tol)
    raise NotImplementedError("no numeric model for kind %r" % kind)


def _diag_membership(src_pts, tgt_pts, tol):
    worst = 0.0
    for a_pts, b_pts in zip(src_pts, tgt_pts):
        for i in a_pts:
            _, r = ch.gauge_equivalent(a_pts[i], b_pts[i], tol)
            worst = max(worst, su2.largest(r))
    return worst <= tol, worst


def _relabel_point(p: ChartPoint, table: dict) -> ChartPoint:
    chart = ModuliChart(
        p.chart.genus,
        tuple(table.get(l, l) for l in p.chart.boundaries),
        frozenset(table.get(l, l) for l in p.chart.incoming),
    )
    return ChartPoint(chart, p.thetas, p.gammas, p.handles)


def _glue_symbol_points(pts_a: dict, pts_b: dict, glued):
    """Glue all matched circles between two symbols' points.  The
    second side's glued labels are primed first, so a pair that ends up
    on one connected piece self-glues without a label collision."""
    table = {l: l + "'" for l in glued}
    pieces = list(pts_a.values()) + [_relabel_point(p, table) for p in pts_b.values()]
    for label in glued:
        primed = table[label]
        owners = [
            p
            for p in pieces
            if label in p.chart.boundaries or primed in p.chart.boundaries
        ]
        if len(owners) == 2:
            p1 = next(p for p in owners if label in p.chart.boundaries)
            p2 = next(p for p in owners if primed in p.chart.boundaries)
            if p1.chart.sign(label) < 0:
                glued_pt, _ = ch.glue(p1, label, p2, primed)
            else:
                glued_pt, _ = ch.glue(p2, primed, p1, label)
            pieces.remove(p1)
            pieces.remove(p2)
            pieces.append(glued_pt)
        elif len(owners) == 1:
            glued_pt, _ = ch.glue_self(owners[0], label, primed)
            pieces.remove(owners[0])
            pieces.append(glued_pt)
        else:
            raise ValueError("glued circle %r not found" % label)
    return pieces


def _ident_membership(src_pts, tgt_pts, face, tol):
    try:
        pieces = _glue_symbol_points(src_pts[0], src_pts[1], face.glued)
    except (ch.MomentMismatch, su2.BranchError):
        return False, math.inf
    tgt_sym = (face.tgt if not face.transposed else face.src)[0]
    worst = 0.0
    tgt_map = tgt_pts[0]
    for i, comp in enumerate(tgt_sym.components):
        want = set(chart_for(comp).boundaries)
        cand = [p for p in pieces if set(p.chart.boundaries) == want]
        if not cand:
            return False, math.inf
        q = tgt_map[i]
        best = math.inf  # per lane, over the candidates
        for p in cand:
            aligned = _permute_to_chart(p, q.chart)
            if aligned is None:
                continue
            _, r = ch.gauge_equivalent(aligned, q, tol)
            best = np.minimum(best, r)
        worst = max(worst, su2.largest(best))
    return worst <= tol, worst


def _permute_to_chart(p: ChartPoint, chart: ModuliChart) -> Optional[ChartPoint]:
    """Move boundaries until the labels match the target chart order."""
    if set(p.chart.boundaries) != set(chart.boundaries):
        return None
    q = p
    if q.chart.boundaries[0] != chart.boundaries[0]:
        q = ch.move_boundary_first(q, chart.boundaries[0])
    for want_pos in range(1, chart.k):
        label = chart.boundaries[want_pos]
        pos = q.chart.index_of(label)
        while pos > want_pos:
            q = ch.swap_adjacent(q, pos - 1)
            pos -= 1
        while pos < want_pos:
            q = ch.swap_adjacent(q, pos)
            pos += 1
    if q.chart.boundaries != chart.boundaries:
        return None
    return ChartPoint(chart, q.thetas, q.gammas, q.handles)


def _holtriv_membership(big_pts, small_pts, face, tol):
    big_sym = face.big_side[0]
    small_syms = face.tgt if not face.transposed else face.src
    worst = 0.0
    pts = big_pts[0]
    for w in face.words:
        worst = max(worst, su2.largest(ch.word_residual(pts[w.comp], w)))
    mapping = {small: big for small, big in face.transfer}
    for sym, spts in zip(small_syms, small_pts):
        for i, comp in enumerate(sym.components):
            p = pts[_find_comp_with_labels(big_sym, comp.boundary_labels)]
            proj = _project_through_compression(p, spts[i].chart, mapping)
            if proj is None:
                return False, math.inf
            _, r = ch.gauge_equivalent(proj, spts[i], tol)
            worst = max(worst, su2.largest(r))
    return worst <= tol, worst


def _find_comp_with_labels(sym: SpaceSymbol, labels) -> int:
    """The index of the component of sym whose boundary holds labels."""
    want = set(labels)
    for i, comp in enumerate(sym.components):
        if want <= set(comp.boundary_labels):
            return i
    raise ValueError("no component carries %r" % (labels,))


def _project_through_compression(p: ChartPoint, small_chart: ModuliChart, mapping):
    """Forget the compressed handles: surviving small-chart generators
    pull back through the transfer mapping."""
    positions = [p.chart.index_of(label) for label in small_chart.boundaries[1:]]
    if 0 in positions or small_chart.boundaries[0] != p.chart.boundaries[0]:
        return None
    pairs = [mapping.get(("a", j), ("a", j))[1] for j in range(1, small_chart.genus + 1)]
    return ch.pick_generators(p, small_chart, positions, pairs)


# --- sampling ------------------------------------------------------------------------


def sample_face_points(face: CorrSymbol, seed: int, budget: int):
    """Deterministic point pairs on a face's locus: (src points, tgt
    points), budget trials as lanes, trial t drawn from the seed
    mix_seed(seed, t); None for a face kind without a sampler or a face
    whose small side does not project."""
    s = su2.mix_seed(seed, np.arange(budget, dtype=np.uint64))
    if face.kind == "diagonal":
        pts = [component_points(sym, su2.mix_seed(s, j)) for j, sym in enumerate(face.src)]
        return pts, pts
    if face.kind == "zero_section":
        side = face.src if face.transposed else face.tgt
        pts = [component_points(sym, su2.mix_seed(s, j), zero_thetas=True)
               for j, sym in enumerate(side)]
        return (pts, []) if face.transposed else ([], pts)
    if face.kind != "hol_trivial":
        return None
    big = face.big_side[0]
    mapping = {small: big_gen for small, big_gen in face.transfer}
    by_comp: dict = {}
    for w in face.words:
        by_comp.setdefault(w.comp, []).append(w)
    big_pts = {}
    for i, comp in enumerate(big.components):
        words = by_comp.get(i, [])
        big_pts[i] = ch.sample_on_locus(chart_for(comp), words, su2.mix_seed(s, i))
    small_side = face.tgt if not face.transposed else face.src
    small_pts = []
    for sym in small_side:
        spts = {}
        for i, comp in enumerate(sym.components):
            proj = _project_through_compression(
                big_pts[_find_comp_with_labels(big, comp.boundary_labels)], chart_for(comp), mapping)
            if proj is None:
                return None
            spts[i] = proj
        small_pts.append(spts)
    return (small_pts, [big_pts]) if face.transposed else ([big_pts], small_pts)


def face_samples_agree(f1: CorrSymbol, f2: CorrSymbol, samples: int, seed: int, index: int):
    """The larger membership residual in f1 and in f2 of samples // 20
    point pairs (at least one) sampled on f1's locus from the seed
    mix_seed(seed, index); None when f1 has no sampler or sampling
    fails.

    membership reads only the face and the points, so when f2 equals f1
    in every field, its transfer included, f2's residual is f1's and is
    not computed again.  The transfer is compared by itself, since
    CorrSymbol's == leaves it out."""
    try:
        pair = sample_face_points(f1, su2.mix_seed(seed, index), max(1, samples // 20))
    except (ch.SamplingFailed, NotImplementedError):
        return None
    if pair is None:
        return None
    _, r1 = membership(f1, *pair)
    if f2 == f1 and f2.transfer == f1.transfer:
        return r1
    _, r2 = membership(f2, *pair)
    return max(r1, r2)
