"""Evaluation of decomposed cobordisms into the symbolic category,
with numerical cross-checks in the holonomy charts.

Objects go to one SU(2) factor per circle, surfaces to moduli symbols
read off componentwise, and each elementary step to one diagram row.
Only the forward steps have rules of their own: cylinders go to wires,
0-handles to zero-sections, circle removals to identification faces and
index-2 compressions to trivial-holonomy faces.  A reversed step
(3-handle, circle insertion, index-1 compression) evaluates as the
transposed row of its reversal, since reversing a cobordism transposes
its correspondence (Wehrheim and Woodward, "Functoriality for
Lagrangian correspondences in Floer theory", 2010); an index-1
compression thus becomes the transposed index-2 row along its belts.

The invariance checker evaluates two step sequences related by a move
chain, compares normal forms, and cross-checks sampled points of every
face against both diagrams.  A face's sample points are one batch of
chart points, a trial per lane (see charts), and a membership residual
is the largest over the lanes."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import math

import numpy as np

from cobord2 import charts as ch
from cobord2 import cobordism as cb
from cobord2 import su2
from cobord2.charts import ChartPoint, ModuliChart
from cobord2.cobordism import CobSeq, CobStep, MoveChainInvalid
from cobord2.diagram import (
    Face,
    SeqMorphism,
    StackDiagram,
    Wire,
    _row_target,
    face_row,
    seq_from_items,
    wire_row,
)
from cobord2.symcat import (
    Component,
    CorrSymbol,
    GroupSymbol,
    HamInstance,
    SpaceSymbol,
    equal_normal_forms,
    moduli_symbol,
    normalize_mod_equiv,
)


def eval0(circles) -> GroupSymbol:
    """One SU(2) factor per circle, orientation recorded."""
    return GroupSymbol(tuple((c.label, c.orient) for c in circles))


def eval_component(comp: cb.SurfComponent) -> Component:
    return Component(
        comp.genus,
        tuple((c.label, c.orient) for c in comp.into),
        tuple((c.label, c.orient) for c in comp.out),
    )


def eval_surface(item: cb.Surface) -> SpaceSymbol:
    return moduli_symbol(*[eval_component(c) for c in item.components])


def eval1(chain, inst: Optional[HamInstance] = None) -> SeqMorphism:
    """Componentwise moduli symbols; keyed on circle labels, never on
    parametrizations, so reparametrized middles evaluate equal."""
    inst = inst or HamInstance()
    items = tuple(eval_surface(item) for item in chain)
    return seq_from_items(inst, items, source=eval0(cb.chain_source(chain)))


def chart_for(comp: Component) -> ModuliChart:
    """The chart of one component: boundary order is incoming labels
    then outgoing, each alphabetical."""
    boundaries = tuple(l for l, _ in comp.left) + tuple(l for l, _ in comp.right)
    return ModuliChart(comp.genus, boundaries, frozenset(l for l, _ in comp.left))


# --- step evaluation -------------------------------------------------------------


def _handle_transfer(src_comp: Component, atts) -> tuple:
    """(small gen -> big gen) pairs per surgered piece: labels are
    stable, handle indices shift past compressed handles, and a
    separating split distributes the survivors in sorted order."""
    killed = set()
    first_handles = None
    for att in atts:
        single = att.word.single_generator()
        if single and single[0] in ("a", "b"):
            killed.add(single[1])
        else:
            _, first_handles = cb.parse_separating(att.word)
    survivors = cb.surviving_handles(src_comp.genus, killed)
    if first_handles is None:
        # single piece: survivors relabel downward in order
        pieces = [survivors]
    else:
        pieces = [[j for j in survivors if j in first_handles],
                  [j for j in survivors if j not in first_handles]]
    out = []
    for piece in pieces:
        for small, big in enumerate(piece, start=1):
            out.append((("a", small), ("a", big)))
            out.append((("b", small), ("b", big)))
    return tuple(out)


def eval2(seq: CobSeq, inst: Optional[HamInstance] = None) -> StackDiagram:
    """One diagram row per step, threading excision flags created by
    circle removals through later levels."""
    inst = inst or HamInstance()
    problems = cb.validate(seq)
    if problems:
        raise cb.PatternMismatch("; ".join(problems))
    if not seq:
        raise cb.PatternMismatch("empty step sequence has no boundary data")
    source = eval1(cb.seq_source(seq), inst)
    symbols = source.items
    rows = []
    for step in seq:
        rows.append(_eval_step(step, symbols, inst))
        symbols = _row_target(rows[-1])
    return StackDiagram(source, tuple(rows))


def _flags(syms) -> frozenset:
    out = frozenset()
    for s in syms:
        out |= s.excised
    return out


def _is_forward(step: CobStep) -> bool:
    return step.kind in (cb.CYLINDER, cb.ZERO_HANDLE, cb.CIRCLE_REMOVE) or (
        step.kind == cb.COMPRESSION and step.index == 2
    )


def _eval_step(step: CobStep, symbols, inst) -> tuple:
    """The row of one step over the current symbols.  A reversed step
    (3-handle, circle insertion, index-1 compression) evaluates to the
    transposed row of its forward reversal, taken on the unflagged
    symbols of its target; each new symbol takes the flags of the
    symbols it replaces."""
    if _is_forward(step):
        return _eval_forward(step, symbols, inst)
    rev = cb.reverse_step(step)
    row = []
    k = 0
    for cell in _eval_forward(rev, tuple(eval_surface(item) for item in rev.source), inst):
        src = tuple(symbols[k:k + len(cell.tgt_items)])
        k += len(src)
        if isinstance(cell, Wire):
            row.append(Wire(src[0]))
        else:
            flags = _flags(src)
            tgt = tuple(s.with_excisions(flags) for s in cell.src_items)
            row.append(Face(replace(cell.morph.transpose(), src=src, tgt=tgt), src, tgt))
    return tuple(row)


def _eval_forward(step: CobStep, symbols, inst) -> tuple:
    p = step.position
    if step.kind == cb.CYLINDER:
        return wire_row(symbols)
    if step.kind == cb.ZERO_HANDLE:
        discs = (eval_surface(step.target[p]), eval_surface(step.target[p + 1]))
        face = CorrSymbol("zero_section", (), discs, circles=(step.circle,))
        return face_row(symbols, p, Face(face, (), discs))
    if step.kind == cb.CIRCLE_REMOVE:
        pair = tuple(symbols[p:p + 2])
        ident = inst.identification2(*pair)
        return face_row(symbols, p, Face(ident, pair, ident.tgt))
    runs = cb.surgery_runs(step.source, step.target, step.attachments)
    runs = {i: (atts, sl) for i, atts, sl in runs}
    row = []
    for i, sym in enumerate(symbols):
        if i not in runs:
            row.append(Wire(sym))
            continue
        atts, (lo, hi) = runs[i]
        targets = tuple(
            eval_surface(step.target[j]).with_excisions(sym.excised)
            for j in range(lo, hi)
        )
        words = tuple(att.word for att in atts)
        touched = {att.comp for att in atts}
        if len(touched) == 1:
            transfer = _handle_transfer(sym.components[atts[0].comp], atts)
        else:
            # generator bases do not carry their component, so lifting
            # through a multi-component face is not representable
            transfer = ()
        face = CorrSymbol("hol_trivial", (sym,), targets, words=words, transfer=transfer)
        row.append(Face(face, (sym,), targets))
    return tuple(row)


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
    flat_small = []
    offset = 0
    for sym, spts in zip(small_syms, small_pts):
        for i, comp in enumerate(sym.components):
            flat_small.append((comp, spts[i]))
    for comp, q in flat_small:
        src_idx, src_comp = _find_comp_with_labels(big_sym, chart_for(comp).boundaries)
        p = pts[src_idx]
        proj = _project_through_compression(p, q.chart, mapping)
        if proj is None:
            return False, math.inf
        _, r = ch.gauge_equivalent(proj, q, tol)
        worst = max(worst, su2.largest(r))
    return worst <= tol, worst


def _find_comp_with_labels(sym: SpaceSymbol, labels):
    want = set(labels)
    for i, comp in enumerate(sym.components):
        have = {l for l, _ in comp.left + comp.right}
        if want <= have:
            return i, comp
    raise ValueError("no component carries %r" % (labels,))


def _project_through_compression(p: ChartPoint, small_chart: ModuliChart, mapping):
    """Forget the compressed handles: surviving small-chart generators
    pull back through the transfer mapping."""
    positions = [p.chart.index_of(label) for label in small_chart.boundaries[1:]]
    if 0 in positions or small_chart.boundaries[0] != p.chart.boundaries[0]:
        return None
    pairs = [mapping.get(("a", j), ("a", j))[1] for j in range(1, small_chart.genus + 1)]
    return ch.pick_generators(p, small_chart, positions, pairs)


# --- invariance -----------------------------------------------------------------------


def invariance_check(y1: CobSeq, y2: CobSeq, moves, samples: int = 100, seed: int = 0):
    """Evaluate two decompositions, compare normal forms, and cross
    check sampled loci of every face, samples // 20 point pairs each
    (at least one); moves, when given, must carry y1 to y2.

    Returns a list of (name, passed, detail) records."""
    inst = HamInstance()
    records = []
    if moves:
        derived = cb.apply_moves(y1, list(moves))
        if derived != y2:
            raise MoveChainInvalid("the move chain does not produce the second sequence")
        records.append(("move-chain", True, "%d moves verified" % len(moves)))
    n1 = normalize_mod_equiv(eval2(y1, inst), inst)
    n2 = normalize_mod_equiv(eval2(y2, inst), inst)
    same = equal_normal_forms(n1, n2, inst)
    records.append(("normal-forms-equal", same, ""))
    if same:
        checked = 0
        worst = 0.0
        for r1, r2 in zip(n1.rows, n2.rows):
            for c1, c2 in zip(r1, r2):
                if isinstance(c1, Wire):
                    continue
                got = _face_samples_agree(c1.morph, c2.morph, samples, su2.mix_seed(seed, checked))
                if got is not None:
                    worst = max(worst, got)
                    checked += 1
        records.append(
            ("numeric-cross-check", worst <= MEMBERSHIP_TOL,
             "%d faces sampled, worst residual %.3g" % (checked, worst))
        )
    return records


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
                big_pts[_find_comp_with_labels(big, chart_for(comp).boundaries)[0]],
                chart_for(comp),
                mapping,
            )
            if proj is None:
                return None
            spts[i] = proj
        small_pts.append(spts)
    return (small_pts, [big_pts]) if face.transposed else ([big_pts], small_pts)


def _face_samples_agree(f1: CorrSymbol, f2: CorrSymbol, samples: int, seed: int):
    try:
        pair = sample_face_points(f1, seed, max(1, samples // 20))
    except (ch.SamplingFailed, NotImplementedError):
        return None
    if pair is None:
        return None
    _, r1 = membership(f1, *pair)
    _, r2 = membership(f2, *pair)
    return max(r1, r2)
