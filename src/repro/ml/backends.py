"""The model-backend seam: every model trains and scores from blocks.

Before this module, the streamed fit path was linear-ridge-only: the
alternating engine hardwired Gram accumulation, the SVM baselines
demanded a materialized ``|H| x d`` matrix, and kernel feature maps
could only be applied to a dense ``X``.  :class:`ModelBackend` is the
protocol that unifies them — a backend *trains* and *scores* by
consuming block iterators, so any model rides the whole scaling stack
(block streaming, thread/process executors, the mmap arena,
checkpoint/resume) without the dense matrix ever existing.

A backend binds to a **block source** — any object exposing

* ``n_candidates`` — number of rows |H|,
* ``n_features`` — raw feature dimensionality d,
* ``feature_blocks()`` — an ordered iterator of ``(offset, X_block)``;

:class:`~repro.engine.streaming.StreamedAlignmentTask` is the canonical
source (its extraction already fans out across the session's executor,
threads or processes alike); :class:`DenseBlockSource` adapts a
materialized matrix as the trivial one-block stream so the dense paths
run through the very same backend code.

Three backends implement the protocol:

* :class:`RidgeBackend` — the paper's closed-form ridge: a dense
  source is fit through the prefactorized
  :class:`~repro.ml.ridge.RidgeSolver`, any other through the
  block-accumulated Gram system of
  :class:`~repro.ml.ridge.GramRidgeSolver` (delegating to the source's
  own ``gram``/``xt_dot``/``scores`` fast paths when no feature map is
  configured, so passes are served from the task's block cache);
* :class:`SVMBackend` — a soft-margin linear SVM over streamed blocks,
  trained by :class:`StreamedLinearSVC`: the same LIBLINEAR dual
  coordinate descent as :class:`~repro.ml.svm.LinearSVC` but
  block-resident rather than matrix-resident — bit-identical given the
  seed and the concatenated row order;
* either backend composed with a **feature map** (``feature_map=``):
  :class:`~repro.ml.kernels.NystroemMap` fits its landmarks from a
  streamed reservoir sample, the other explicit maps need only the
  input dimensionality; blocks are mapped on the fly, so kernelized
  fits stream exactly like linear ones.

Scoring ships a :class:`LinearModelState` — plain arrays: optional map
state, optional scaler statistics, coefficients — which is picklable
and therefore crosses process boundaries as-is
(:func:`repro.store.procwork.model_score_block_job`); the worker-side
and in-process paths both call :func:`apply_model_state`, so a
process-pool score sweep is byte-identical to the inline one.

Backends expose :meth:`ModelBackend.state_dict` /
:meth:`ModelBackend.load_state_dict` so their sticky state — dual
coefficients, the landmark sample, map statistics — enters session
checkpoints and resume stays byte-identical for non-ridge models too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.ml.kernels import (
    FEATURE_MAP_NAMES,
    feature_map_from_state,
    make_feature_map,
)
from repro.ml.ridge import GramRidgeSolver, RidgeSolver
from repro.ml.scaling import StandardScaler
from repro.ml.svm import _unshrink_verify, dual_coordinate_descent
from repro.obs.metrics import global_registry

#: Model backends addressable by name (CLI / MethodSpec knobs).
BACKEND_NAMES = ("ridge", "svm", "svm-pu")


# ----------------------------------------------------------------------
# Block sources
# ----------------------------------------------------------------------
class DenseBlockSource:
    """A materialized matrix served as the trivial one-block stream.

    Wraps either a plain array or any object with a mutable ``X``
    attribute (an :class:`~repro.core.base.AlignmentTask`, whose ``X``
    the active loop rewrites in place between rounds) — the block is
    read at iteration time, so refreshes are always visible.
    """

    def __init__(self, X) -> None:
        self._holder = X if hasattr(X, "X") else None
        self._X = None if self._holder is not None else np.asarray(X, dtype=np.float64)

    @property
    def X(self) -> np.ndarray:
        """The live matrix (re-read from the holder each access)."""
        if self._holder is not None:
            return np.asarray(self._holder.X, dtype=np.float64)
        return self._X

    @property
    def n_candidates(self) -> int:
        """Number of rows."""
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        """Raw feature dimensionality."""
        return int(self.X.shape[1])

    def feature_blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """The whole matrix as one ``(0, X)`` block."""
        yield 0, self.X

    def block_spans(self) -> List[Tuple[int, int]]:
        """Partition map: the single block's ``(offset, length)``."""
        return [(0, self.n_candidates)]

    def selected_feature_blocks(
        self, block_indices: Sequence[int]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Selective pass over the trivial one-block partition."""
        for b in block_indices:
            if int(b) != 0:
                raise ModelError(f"block index {b} out of range")
            yield 0, self.X


def _source_spans(source) -> List[Tuple[int, int]]:
    """``(offset, length)`` partition of a block source.

    Sources exposing :meth:`block_spans` (the streamed task, the dense
    adapter) answer without reading features; anything else pays one
    metadata-only pass over ``feature_blocks()``.
    """
    if hasattr(source, "block_spans"):
        return [(int(o), int(n)) for o, n in source.block_spans()]
    return [
        (int(offset), int(X.shape[0]))
        for offset, X in source.feature_blocks()
    ]


def _selected_blocks(source, block_indices, spans):
    """Selective block pass with a filtered-sweep fallback.

    Sources without :meth:`selected_feature_blocks` stream everything
    and drop unrequested blocks — correct, just without the read
    savings.  Requested blocks are yielded in stream order either way.
    """
    wanted = sorted(int(b) for b in block_indices)
    if not wanted:
        return
    if hasattr(source, "selected_feature_blocks"):
        yield from source.selected_feature_blocks(wanted)
        return
    offsets = {spans[b][0] for b in wanted}
    for offset, X in source.feature_blocks():
        if int(offset) in offsets:
            yield offset, X


def as_block_source(task_or_X) -> object:
    """Coerce a task or matrix into a block source (ducks pass through)."""
    if hasattr(task_or_X, "feature_blocks"):
        return task_or_X
    return DenseBlockSource(task_or_X)


def gather_rows(source, indices: np.ndarray) -> np.ndarray:
    """Collect ``X[indices]`` from a block source in one streamed pass.

    Row values are copied verbatim from their home blocks, so the
    result is bit-identical to fancy-indexing the materialized matrix.
    The output row order follows ``indices`` (duplicates included).
    """
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((indices.shape[0], source.n_features), dtype=np.float64)
    if indices.size == 0:
        return out
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    if sorted_indices[0] < 0 or sorted_indices[-1] >= source.n_candidates:
        raise ModelError("row index out of range for the block source")
    filled = 0
    for offset, X in source.feature_blocks():
        lo = int(np.searchsorted(sorted_indices, offset, side="left"))
        hi = int(
            np.searchsorted(sorted_indices, offset + X.shape[0], side="left")
        )
        if hi > lo:
            out[order[lo:hi]] = X[sorted_indices[lo:hi] - offset]
            filled += hi - lo
    if filled != indices.size:  # pragma: no cover - defensive
        raise ModelError("block stream did not cover every requested row")
    return out


# ----------------------------------------------------------------------
# Picklable scoring state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinearModelState:
    """Everything needed to score a feature block, as plain arrays.

    The picklable work-unit payload of the model seam: an optional
    fitted feature-map state (:func:`~repro.ml.kernels.feature_map_from_state`),
    optional scaler statistics, and the linear coefficients of the
    fitted model in the mapped/scaled space.
    """

    coef: np.ndarray
    intercept: float = 0.0
    map_state: Optional[Dict] = None
    scaler_mean: Optional[np.ndarray] = None
    scaler_scale: Optional[np.ndarray] = None


def apply_model_state(state: LinearModelState, X: np.ndarray) -> np.ndarray:
    """Score one raw feature block: map, scale, then the linear form.

    Shared verbatim by the in-process scoring loop and the process-pool
    job (:func:`repro.store.procwork.model_score_block_job`), so the
    two paths are byte-identical on byte-identical blocks.
    """
    Z = np.asarray(X, dtype=np.float64)
    if state.map_state is not None:
        Z = feature_map_from_state(state.map_state).transform(Z)
    if state.scaler_mean is not None:
        Z = (Z - state.scaler_mean) / state.scaler_scale
    return Z @ state.coef + state.intercept


def _stream_scores(source, state: LinearModelState) -> np.ndarray:
    """Whole-of-source scores for a model state, block by block.

    A source offering ``linear_model_scores`` (the streamed task, which
    can ship the state to a process pool over the shared arena) handles
    the sweep itself; anything else is scored inline.
    """
    if hasattr(source, "linear_model_scores"):
        return source.linear_model_scores(state)
    scores = np.empty(source.n_candidates, dtype=np.float64)
    for offset, X in source.feature_blocks():
        scores[offset: offset + X.shape[0]] = apply_model_state(state, X)
    return scores


# ----------------------------------------------------------------------
# The streamed SVM optimizer
# ----------------------------------------------------------------------
class StreamedLinearSVC:
    """Soft-margin linear SVM trained block-resident.

    Runs the same dual-coordinate-descent updates as
    :class:`~repro.ml.svm.LinearSVC` (they share
    :func:`~repro.ml.svm.dual_coordinate_descent`), but the design
    matrix stays a *list of row blocks* — the contiguous ``n x d`` copy
    is never allocated, so the optimizer composes with block streams
    and cached feature blocks.  Training is bit-identical to the dense
    optimizer given the seed and the concatenated row order, for any
    block partition.

    Parameters mirror :class:`~repro.ml.svm.LinearSVC`;
    ``sample_weight`` on :meth:`fit_blocks` additionally scales each
    sample's box constraint to ``C * weight_i`` (per-sample cost
    weighting — the PU positive-upweighting analog for SVMs), and
    ``shrink`` selects the certified working-set sweep (bit-identical
    to the full sweep; see :mod:`repro.ml.svm`).

    :meth:`fit_source` is the working-set streamed fit: instead of
    holding every design block for the whole optimization, it keeps a
    compact resident cache of only the rows the sweep still visits —
    screened-out duals give up their rows after each epoch, and blocks
    whose every remaining dual is screened are never read from the
    source again (the ``svm.blocks_skipped`` counter).  All skips are
    certificate-backed no-ops of the unshrunk sweep, so the result is
    bit-identical to :meth:`fit_blocks` on the materialized stream for
    the same seed and row order.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 1000,
        tol: float = 1e-4,
        fit_intercept: bool = True,
        seed: int = 0,
        shrink: bool = True,
    ) -> None:
        if C <= 0:
            raise ModelError(f"C must be > 0, got {C}")
        if max_iter < 1:
            raise ModelError("max_iter must be >= 1")
        self.C = float(C)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.fit_intercept = bool(fit_intercept)
        self.seed = int(seed)
        self.shrink = bool(shrink)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self.shrink_stats_: Dict = {}

    def fit_blocks(
        self,
        blocks: Sequence[np.ndarray],
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "StreamedLinearSVC":
        """Fit on ``{0, 1}``-labeled rows held as a block list."""
        validated: List[np.ndarray] = []
        n_features: Optional[int] = None
        for block in blocks:
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2:
                raise ModelError("design blocks must be 2-D")
            if n_features is None:
                n_features = block.shape[1]
            elif block.shape[1] != n_features:
                raise ModelError(
                    f"inconsistent block widths: {block.shape[1]} vs "
                    f"{n_features}"
                )
            validated.append(block)
        n_samples = sum(block.shape[0] for block in validated)
        if n_samples == 0 or n_features is None:
            raise ModelError("cannot fit on zero samples")
        y = np.asarray(y).ravel()
        if y.shape[0] != n_samples:
            raise ModelError(f"{y.shape[0]} labels for {n_samples} samples")
        unique = set(np.unique(y).tolist())
        if not unique <= {0, 1}:
            raise ModelError(
                f"labels must be in {{0, 1}}, got {sorted(unique)}"
            )
        signed = np.where(y > 0, 1.0, -1.0)
        if len(set(signed.tolist())) < 2:
            # Degenerate single-class training set: behave like the
            # majority-class predictor (hyperplane pushed to one side) —
            # exactly LinearSVC's handling.
            self.coef_ = np.zeros(n_features)
            self.intercept_ = float(signed[0]) * 1.0
            self.n_iter_ = 0
            self.shrink_stats_ = {}
            return self

        sample_C = None
        if sample_weight is not None:
            weights = np.asarray(sample_weight, dtype=np.float64).ravel()
            if weights.shape[0] != n_samples:
                raise ModelError(
                    f"{weights.shape[0]} weights for {n_samples} samples"
                )
            if np.any(weights < 0):
                raise ModelError("sample weights must be >= 0")
            sample_C = self.C * weights

        if self.fit_intercept:
            design = [
                np.hstack([block, np.ones((block.shape[0], 1))])
                for block in validated
            ]
        else:
            design = validated
        self.shrink_stats_ = {}
        w, self.n_iter_ = dual_coordinate_descent(
            design,
            signed,
            C=self.C,
            max_iter=self.max_iter,
            tol=self.tol,
            seed=self.seed,
            sample_C=sample_C,
            shrink=self.shrink,
            stats=self.shrink_stats_ if self.shrink else None,
        )
        if self.fit_intercept:
            self.coef_ = w[:-1].copy()
            self.intercept_ = float(w[-1])
        else:
            self.coef_ = w.copy()
            self.intercept_ = 0.0
        return self

    def fit_source(
        self,
        source,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        sample_C: Optional[np.ndarray] = None,
        prepare=None,
        registry=None,
    ) -> "StreamedLinearSVC":
        """Working-set fit straight off a re-readable block source.

        ``source`` is anything with ``feature_blocks()`` (ideally also
        ``block_spans()``/``selected_feature_blocks()`` so unneeded
        blocks are never extracted); ``prepare`` optionally maps each
        raw block to design rows (feature map + scaling).  ``sample_C``
        gives per-sample box constraints directly (overrides
        ``sample_weight``'s ``C * w_i``).

        The optimizer runs the same certified sweep as
        :func:`~repro.ml.svm.dual_coordinate_descent` ``(shrink=True)``
        but holds only the rows the sweep can still visit: after each
        epoch the resident store is rebuilt with certificate-covered
        rows evicted, and only blocks owning a still-needed row are
        re-read.  ``registry`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`) receives the
        ``svm.blocks_skipped`` counter and ``phase.svm_epoch``
        histogram.  Bit-identical to :meth:`fit_blocks` on the
        materialized stream for the same seed and row order.
        """
        spans = _source_spans(source)
        n_samples = sum(length for _, length in spans)
        if n_samples == 0:
            raise ModelError("cannot fit on zero samples")
        span_offsets = np.array([offset for offset, _ in spans],
                                dtype=np.int64)
        n_blocks = len(spans)
        y = np.asarray(y).ravel()
        if y.shape[0] != n_samples:
            raise ModelError(f"{y.shape[0]} labels for {n_samples} samples")
        unique = set(np.unique(y).tolist())
        if not unique <= {0, 1}:
            raise ModelError(
                f"labels must be in {{0, 1}}, got {sorted(unique)}"
            )
        signed = np.where(y > 0, 1.0, -1.0)

        def prep(X: np.ndarray) -> np.ndarray:
            Z = np.asarray(X, dtype=np.float64)
            if prepare is not None:
                Z = np.asarray(prepare(Z), dtype=np.float64)
            if self.fit_intercept:
                Z = np.hstack([Z, np.ones((Z.shape[0], 1))])
            return Z

        if len(set(signed.tolist())) < 2:
            # Degenerate single-class set: constant majority predictor,
            # exactly the fit_blocks handling.  One block read for the
            # design width.
            for _, X in _selected_blocks(source, [0], spans):
                width = prep(X).shape[1]
                break
            if self.fit_intercept:
                width -= 1
            self.coef_ = np.zeros(width)
            self.intercept_ = float(signed[0]) * 1.0
            self.n_iter_ = 0
            self.shrink_stats_ = {}
            return self

        if sample_C is not None:
            box = np.asarray(sample_C, dtype=np.float64).ravel()
            if box.shape[0] != n_samples:
                raise ModelError(
                    f"{box.shape[0]} box constraints for "
                    f"{n_samples} samples"
                )
            if np.any(box < 0) or not np.all(np.isfinite(box)):
                raise ModelError("sample_C must be finite and >= 0")
            box = box.copy()
        elif sample_weight is not None:
            weights = np.asarray(sample_weight, dtype=np.float64).ravel()
            if weights.shape[0] != n_samples:
                raise ModelError(
                    f"{weights.shape[0]} weights for {n_samples} samples"
                )
            if np.any(weights < 0):
                raise ModelError("sample weights must be >= 0")
            box = self.C * weights
        else:
            box = np.full(n_samples, self.C)

        # --- pass 0: full materialization (epoch 1 visits everything) --
        dim = None
        store = None
        for offset, X in _selected_blocks(source, range(n_blocks), spans):
            Z = prep(X)
            if store is None:
                dim = Z.shape[1]
                store = np.empty((n_samples, dim))
            elif Z.shape[1] != dim:
                raise ModelError(
                    f"inconsistent block widths: {Z.shape[1]} vs {dim}"
                )
            store[offset:offset + Z.shape[0]] = Z
        q_diag = np.einsum("ij,ij->i", store, store)

        self.shrink_stats_ = {}
        if not self.shrink:
            w, self.n_iter_ = dual_coordinate_descent(
                [store], signed, C=self.C, max_iter=self.max_iter,
                tol=self.tol, seed=self.seed, sample_C=box
                if (sample_C is not None or sample_weight is not None)
                else None,
                shrink=False,
            )
            if self.fit_intercept:
                self.coef_ = w[:-1].copy()
                self.intercept_ = float(w[-1])
            else:
                self.coef_ = w.copy()
                self.intercept_ = 0.0
            return self

        counter = (
            registry.counter("svm.blocks_skipped")
            if registry is not None else None
        )
        histogram = (
            registry.histogram("phase.svm_epoch")
            if registry is not None else None
        )

        # Mirrors the certified sweep in dual_coordinate_descent; the
        # arithmetic of every active visit is identical, and certified
        # skips are exact no-ops, so any divergence in *which* rows get
        # screened (cached matvec shapes differ) cannot change the
        # trajectory.
        eps = float(np.finfo(np.float64).eps)
        row_norm = np.sqrt(q_diag)
        dead = (q_diag == 0.0) | (box == 0.0)
        screenable = np.zeros(n_samples, dtype=bool)
        screen_slack = np.zeros(n_samples)
        screen_snap = np.zeros(n_samples)
        alpha = np.zeros(n_samples)
        w = np.zeros(dim)
        drift_total = 0.0
        budget = 0.0
        rng = np.random.default_rng(self.seed)
        order = np.arange(n_samples)
        epochs_run = 0
        active_visits = 0
        skipped_visits = 0
        rescreens = 0
        blocks_read = n_blocks  # pass 0
        blocks_skipped = 0
        row_fetches = 0
        resident_pos = np.arange(n_samples)
        overlay: Dict[int, np.ndarray] = {}
        resident_peak = n_samples

        def homes_of(indices: np.ndarray) -> np.ndarray:
            return np.unique(
                np.searchsorted(span_offsets, indices, side="right") - 1
            )

        def refresh(cand: np.ndarray) -> None:
            """Recompute certificates; fetch non-resident rows."""
            nonlocal blocks_read, row_fetches
            parts: List[Tuple[np.ndarray, np.ndarray]] = []
            slots = resident_pos[cand]
            res = cand[slots >= 0]
            if res.size:
                parts.append((res, store[resident_pos[res]]))
            rest = cand[slots < 0]
            if rest.size:
                in_overlay = [i for i in rest.tolist() if i in overlay]
                if in_overlay:
                    parts.append((
                        np.asarray(in_overlay, dtype=np.int64),
                        np.stack([overlay[i] for i in in_overlay]),
                    ))
                missing = np.asarray(
                    [i for i in rest.tolist() if i not in overlay],
                    dtype=np.int64,
                )
                if missing.size:
                    homes = homes_of(missing)
                    for offset, X in _selected_blocks(
                        source, homes.tolist(), spans
                    ):
                        Z = prep(X)
                        lo = int(offset)
                        sel = missing[
                            (missing >= lo) & (missing < lo + Z.shape[0])
                        ]
                        rows = Z[sel - lo]
                        for k, i in enumerate(sel.tolist()):
                            overlay[int(i)] = rows[k]
                        parts.append((sel, rows))
                        row_fetches += int(sel.size)
                    blocks_read += int(homes.size)
            for sel, rows in parts:
                grads = signed[sel] * (rows @ w) - 1.0
                slack = np.where(alpha[sel] == 0.0, grads, -grads)
                fresh = slack > 0.0
                sub = sel[fresh]
                screenable[sub] = True
                screen_slack[sub] = slack[fresh]
                screen_snap[sub] = drift_total
                screenable[sel[~fresh]] = False

        converged_at = self.max_iter
        for iteration in range(self.max_iter):
            epoch_started = time.perf_counter()
            rng.shuffle(order)
            max_violation = 0.0
            epoch_start_drift = drift_total

            if iteration > 0:
                # Rebuild the resident store for this epoch: evict only
                # rows whose certificate covers several epochs of drift
                # at the current rate (16 * budget = last epoch's
                # drift), so evicted rows do not bounce straight back
                # through a block fetch.  Resident pinned rows get a
                # free certificate refresh first — slack is measured at
                # eviction time, where it is largest.
                horizon = drift_total + 128.0 * budget
                guard_h = 64.0 * eps * dim * row_norm * (horizon + 1.0)
                covers_h = screenable & (
                    screen_slack - row_norm * (horizon - screen_snap)
                    > guard_h
                )
                pinned = ~dead & ((alpha == 0.0) | (alpha == box))
                local = resident_pos >= 0
                if overlay:
                    local = local.copy()
                    local[np.fromiter(overlay, dtype=np.int64)] = True
                stale_h = pinned & local & ~covers_h
                if stale_h.any():
                    refresh(np.flatnonzero(stale_h))
                    covers_h = screenable & (
                        screen_slack - row_norm * (horizon - screen_snap)
                        > guard_h
                    )
                needed = np.flatnonzero(~dead & ~covers_h)
                new_store = np.empty((needed.size, dim))
                new_pos = np.full(n_samples, -1, dtype=np.int64)
                new_pos[needed] = np.arange(needed.size)
                held = needed[resident_pos[needed] >= 0]
                new_store[new_pos[held]] = store[resident_pos[held]]
                missing_list = []
                for i in needed[resident_pos[needed] < 0].tolist():
                    row = overlay.get(int(i))
                    if row is not None:
                        new_store[new_pos[i]] = row
                    else:
                        missing_list.append(i)
                missing = np.asarray(missing_list, dtype=np.int64)
                if missing.size:
                    fetch_homes = homes_of(missing)
                    for offset, X in _selected_blocks(
                        source, fetch_homes.tolist(), spans
                    ):
                        Z = prep(X)
                        lo = int(offset)
                        sel = missing[
                            (missing >= lo) & (missing < lo + Z.shape[0])
                        ]
                        new_store[new_pos[sel]] = Z[sel - lo]
                        row_fetches += int(sel.size)
                    blocks_read += int(fetch_homes.size)
                needed_homes = (
                    homes_of(needed) if needed.size
                    else np.empty(0, dtype=np.int64)
                )
                epoch_skipped = n_blocks - int(needed_homes.size)
                blocks_skipped += epoch_skipped
                if counter is not None and epoch_skipped:
                    counter.inc(epoch_skipped)
                store = new_store
                resident_pos = new_pos
                overlay = {}
            resident_peak = max(
                resident_peak, store.shape[0] + len(overlay)
            )

            cursor = 0
            rounds = 0
            while cursor < n_samples:
                rounds += 1
                if rounds > 1:
                    rescreens += 1
                if rounds % 32 == 0:
                    budget *= 2.0  # runaway-round safeguard
                allowance = drift_total + budget
                guard = 64.0 * eps * dim * row_norm * (allowance + 1.0)
                covers_round = (
                    screen_slack - row_norm * (allowance - screen_snap)
                    > guard
                )
                stale = (
                    ~dead
                    & ((alpha == 0.0) | (alpha == box))
                    & ~(screenable & covers_round)
                )
                if stale.any():
                    refresh(np.flatnonzero(stale))
                    covers_round = (
                        screen_slack - row_norm * (allowance - screen_snap)
                        > guard
                    )
                certified = screenable & covers_round
                visits = order[cursor:]
                if not certified[visits].any():
                    allowance = np.inf
                active_rel = np.flatnonzero(~(dead | certified)[visits])
                breached = False
                for k in range(active_rel.size):
                    rel = int(active_rel[k])
                    i = int(visits[rel])
                    active_visits += 1
                    slot = resident_pos[i]
                    row = store[slot] if slot >= 0 else overlay[i]
                    margin = signed[i] * (row @ w)
                    gradient = margin - 1.0
                    a = alpha[i]
                    if a == 0.0:
                        projected = min(gradient, 0.0)
                    elif a == box[i]:
                        projected = max(gradient, 0.0)
                    else:
                        projected = gradient
                    max_violation = max(max_violation, abs(projected))
                    if projected != 0.0:
                        screenable[i] = False
                        alpha[i] = min(
                            max(a - gradient / q_diag[i], 0.0), box[i]
                        )
                        delta = (alpha[i] - a) * signed[i]
                        if delta != 0.0:
                            w += delta * row
                            drift_total += abs(delta) * row_norm[i]
                            if drift_total > allowance:
                                skipped_visits += rel - k
                                cursor += rel + 1
                                breached = True
                                break
                    elif a == 0.0 or a == box[i]:
                        slack = gradient if a == 0.0 else -gradient
                        if slack > 0.0:
                            screenable[i] = True
                            screen_slack[i] = slack
                            screen_snap[i] = drift_total
                        else:
                            screenable[i] = False
                if not breached:
                    skipped_visits += visits.size - active_rel.size
                    cursor = n_samples
            epochs_run += 1
            budget = (drift_total - epoch_start_drift) / 16.0
            if histogram is not None:
                histogram.observe(time.perf_counter() - epoch_started)
            if max_violation < self.tol:
                converged_at = iteration + 1
                break

        resident_final = int(store.shape[0]) + len(overlay)

        # Unshrink+verify: re-read only the blocks holding a screened
        # dual and validate every certificate at the final weights.
        screened = np.flatnonzero(screenable)
        verify_checked = 0
        verify_max_residual = 0.0
        if screened.size:
            verify_homes = homes_of(screened)
            verify_checked, verify_max_residual = _unshrink_verify(
                (
                    (offset, prep(X))
                    for offset, X in _selected_blocks(
                        source, verify_homes.tolist(), spans
                    )
                ),
                signed, w, alpha, box, row_norm,
                screenable, screen_slack, screen_snap, drift_total,
                dim, eps,
            )
            blocks_read += int(verify_homes.size)

        self.shrink_stats_ = {
            "epochs": epochs_run,
            "active_visits": active_visits,
            "skipped_visits": skipped_visits,
            "rescreens": rescreens,
            "screened_final": int(np.count_nonzero(screenable)),
            "verify_checked": verify_checked,
            "verify_max_residual": verify_max_residual,
            "drift": drift_total,
            "n_samples": n_samples,
            "blocks_total": n_blocks,
            "blocks_read": blocks_read,
            "blocks_skipped": blocks_skipped,
            "row_fetches": row_fetches,
            "resident_peak": int(resident_peak),
            "resident_final": resident_final,
        }
        self.n_iter_ = converged_at
        if self.fit_intercept:
            self.coef_ = w[:-1].copy()
            self.intercept_ = float(w[-1])
        else:
            self.coef_ = w.copy()
            self.intercept_ = 0.0
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "StreamedLinearSVC":
        """Dense convenience wrapper: one block."""
        return self.fit_blocks([np.asarray(X, dtype=np.float64)], y)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distances ``w·x + b``."""
        if self.coef_ is None:
            raise NotFittedError("StreamedLinearSVC.fit has not been called")
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted ``{0, 1}`` labels."""
        return (self.decision_function(X) > 0).astype(np.int64)


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------
class ModelBackend:
    """One model family behind the streamed fit seam.

    Lifecycle, per fit round: :meth:`begin` binds the backend to a
    block source and does the per-round precomputation (Gram
    accumulation, map fitting, training-row gathers are all deferred to
    the concrete class); :meth:`fit` trains on the current labels and
    returns a packed weight vector; :meth:`scores` maps a weight vector
    back to whole-of-source decision scores.  The alternating engine
    calls ``fit``/``scores`` repeatedly between ``begin`` calls with
    the label vector evolving — exactly the closure contract the
    ridge-only path used, now model-agnostic.

    ``trains_on`` declares what :meth:`fit` learns from: ``"all"``
    backends (ridge) regress on every candidate's current pseudo-label;
    ``"labeled"`` backends (SVM) train on the clamped/labeled rows only
    — the supervised semantics of the paper's SVM baselines, which also
    keeps the optimizer's working set at the label budget rather than
    |H|; ``"pu"`` backends (the biased SVM) train on every streamed
    row, with the clamped indices marking which rows carry full cost.

    Sticky cross-round state (a fitted feature map's landmark sample
    and statistics, the last dual solution) round-trips through
    :meth:`state_dict`/:meth:`load_state_dict`, which is how backends
    enter session checkpoints.
    """

    kind: str = "backend"
    #: ``"all"`` — fit on every row; ``"labeled"`` — fit on train rows;
    #: ``"pu"`` — fit on every row, train indices mark the C-cost band.
    trains_on: str = "all"

    def __init__(self, feature_map=None) -> None:
        self.feature_map = feature_map
        self._map_fitted = False
        # The source the fitted map belongs to.  ``None`` while a
        # checkpoint-restored map waits to adopt its first source.
        self._map_source = None
        self._source = None

    # -- feature-map plumbing ------------------------------------------
    def _ensure_map(self, source) -> None:
        """Fit the configured feature map once *per bound task*.

        :class:`~repro.ml.kernels.NystroemMap` consumes the stream (its
        reservoir sample); the other maps need only the input
        dimensionality and fit on the first block.  Repeated ``begin``
        calls with the *same* source (the active loop's per-round
        refits) reuse the fitted map — the feature space stays fixed
        across query rounds, which is what makes checkpointed resumes
        byte-identical — while binding to a *different* source (a model
        instance refit on a new task) refits the map, so no landmark
        sample or projection ever leaks between tasks.  A map restored
        by :meth:`load_state_dict` adopts the next source without
        refitting (that is the resume path).
        """
        if self.feature_map is None:
            return
        if self._map_fitted:
            if self._map_source is None:
                self._map_source = source
                return
            if self._map_source is source:
                return
            self._map_fitted = False
        if hasattr(self.feature_map, "fit_streamed"):
            self.feature_map.fit_streamed(
                X for _, X in source.feature_blocks()
            )
        else:
            first = next(iter(source.feature_blocks()), None)
            if first is None:
                raise ModelError("cannot fit a feature map on zero blocks")
            self.feature_map.fit(first[1])
        self._map_fitted = True
        self._map_source = source

    def _transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the fitted feature map (identity when none)."""
        if self.feature_map is None:
            return X
        return self.feature_map.transform(X)

    def _map_state(self) -> Optional[Dict]:
        """Picklable state of the fitted map, or ``None``."""
        if self.feature_map is None or not self._map_fitted:
            return None
        return self.feature_map.state_dict()

    # -- protocol ------------------------------------------------------
    def begin(
        self,
        source,
        sample_weight: Optional[np.ndarray] = None,
        train_indices: Optional[np.ndarray] = None,
    ) -> None:
        """Bind to a block source and do per-round precomputation."""
        raise NotImplementedError

    def fit(self, y: np.ndarray) -> np.ndarray:
        """Train on the bound source; returns the packed weight vector."""
        raise NotImplementedError

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Whole-of-source decision scores for a packed weight vector."""
        raise NotImplementedError

    def state_dict(self) -> Dict:
        """Picklable sticky state (for checkpoints)."""
        raise NotImplementedError

    def load_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume)."""
        raise NotImplementedError

    def _check_state_kind(self, state: Dict) -> None:
        found = state.get("kind")
        if found != self.kind:
            raise ModelError(
                f"checkpoint carries {found!r} backend state but this model "
                f"uses the {self.kind!r} backend; resume with the model "
                "configuration the run was started with"
            )

    def _restore_map(self, state: Dict) -> None:
        map_state = state.get("map")
        if map_state is not None:
            self.feature_map = feature_map_from_state(map_state)
            self._map_fitted = True
            self._map_source = None  # adopt the next bound source as-is


class RidgeBackend(ModelBackend):
    """The paper's closed-form ridge, behind the backend seam.

    Without a feature map, a :class:`DenseBlockSource` is fit through
    :class:`~repro.ml.ridge.RidgeSolver`: the prefactorized closed form
    with its ``(XᵀΩ)y`` right-hand side and a dense ``Xw`` score, so
    materialized fits keep the solver's exact operation order.  Any
    other source works from its block-accumulated ``XᵀΩX`` through
    :class:`~repro.ml.ridge.GramRidgeSolver`: ``fit`` solves against
    the block-accumulated right-hand side ``Xᵀ(Ωy)`` and ``scores``
    delegates to the source's own score sweep.  On a streamed task all
    three read its block cache, so an alternating fit extracts each
    block once per session epoch, not once per pass.  With a feature
    map the same accumulations run over mapped blocks.
    """

    kind = "ridge"
    trains_on = "all"

    def __init__(self, c: float = 1.0, feature_map=None) -> None:
        super().__init__(feature_map=feature_map)
        if c <= 0:
            raise ModelError(f"loss weight c must be > 0, got {c}")
        self.c = float(c)
        self._solver: Optional[GramRidgeSolver] = None
        self._dense: Optional[RidgeSolver] = None
        self._sample_weight: Optional[np.ndarray] = None

    def begin(self, source, sample_weight=None, train_indices=None) -> None:
        if train_indices is not None:
            raise ModelError(
                "the ridge backend regresses on every candidate; "
                "train_indices only applies to 'labeled' backends"
            )
        self._source = source
        self._sample_weight = sample_weight
        self._ensure_map(source)
        self._solver = self._dense = None
        if self.feature_map is None and isinstance(source, DenseBlockSource):
            self._dense = RidgeSolver(
                source.X, c=self.c, sample_weight=sample_weight
            )
            return
        if self.feature_map is None and hasattr(source, "gram"):
            gram = source.gram(sample_weight)
        else:
            gram = None
            for offset, X in source.feature_blocks():
                Z = self._transform(X)
                if gram is None:
                    gram = np.zeros((Z.shape[1], Z.shape[1]))
                if sample_weight is None:
                    gram += Z.T @ Z
                else:
                    weights = sample_weight[offset: offset + Z.shape[0]]
                    gram += (Z.T * weights) @ Z
            if gram is None:
                raise ModelError("cannot fit on an empty block stream")
        self._solver = GramRidgeSolver(gram, c=self.c)

    def fit(self, y: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense.solve(y)
        if self._solver is None or self._source is None:
            raise NotFittedError("RidgeBackend.begin has not been called")
        y = np.asarray(y, dtype=np.float64).ravel()
        target = y if self._sample_weight is None else y * self._sample_weight
        if self.feature_map is None and hasattr(self._source, "xt_dot"):
            rhs = self._source.xt_dot(target)
        else:
            rhs = np.zeros(self._solver.n_features)
            for offset, X in self._source.feature_blocks():
                Z = self._transform(X)
                rhs += Z.T @ target[offset: offset + Z.shape[0]]
        return self._solver.solve_rhs(rhs)

    def scores(self, weights: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense.predict(weights)
        if self._source is None:
            raise NotFittedError("RidgeBackend.begin has not been called")
        if self.feature_map is None and hasattr(self._source, "scores"):
            return self._source.scores(weights)
        state = LinearModelState(
            coef=np.asarray(weights, dtype=np.float64).ravel(),
            map_state=self._map_state(),
        )
        return _stream_scores(self._source, state)

    def state_dict(self) -> Dict:
        return {"kind": self.kind, "c": self.c, "map": self._map_state()}

    def load_state_dict(self, state: Dict) -> None:
        self._check_state_kind(state)
        self._restore_map(state)


class SVMBackend(ModelBackend):
    """Soft-margin linear SVM behind the backend seam.

    Trains a :class:`StreamedLinearSVC` on the bound source's training
    rows — gathered from the block stream, never via a materialized
    ``|H| x d`` matrix — optionally standardized (statistics from the
    training rows only, the leakage-safe convention of the dense
    :class:`~repro.core.svm_baselines.SVMAligner`) and optionally
    kernelized through the composed feature map.  Scoring streams every
    block through :func:`apply_model_state`, which a store-backed
    session fans across the process pool.

    With ``train_indices`` (the supervised mode used by the SVM
    baselines and by the active loop, where the clamped set is the
    training set), the fit gathers exactly those rows; without it the
    optimizer consumes the whole stream block-resident.

    ``mode="pu"`` is the positive-unlabeled variant: the fit trains on
    the clamped rows at cost ``C`` *plus every other streamed candidate
    row as a weighted soft negative* at cost ``unlabeled_C`` (the
    biased-SVM formulation), through
    :meth:`StreamedLinearSVC.fit_source` — an all-of-H dual pass kept
    tractable by the certified working-set sweep, its compact resident
    row cache, and block screening (``svm.blocks_skipped`` /
    ``phase.svm_epoch`` in the bound session's metrics registry).
    """

    kind = "svm"
    trains_on = "labeled"

    def __init__(
        self,
        C: float = 1.0,
        scale_features: bool = True,
        seed: int = 0,
        feature_map=None,
        max_iter: int = 1000,
        tol: float = 1e-4,
        mode: str = "supervised",
        unlabeled_C: float = 0.1,
        shrink: bool = True,
    ) -> None:
        super().__init__(feature_map=feature_map)
        if mode not in ("supervised", "pu"):
            raise ModelError(
                f"mode must be 'supervised' or 'pu', got {mode!r}"
            )
        if unlabeled_C <= 0:
            raise ModelError(f"unlabeled_C must be > 0, got {unlabeled_C}")
        self.C = float(C)
        self.scale_features = bool(scale_features)
        self.seed = int(seed)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.mode = mode
        self.unlabeled_C = float(unlabeled_C)
        self.shrink = bool(shrink)
        #: PU backends receive the clamped indices (they set the
        #: positive cost band) but train on every candidate row.
        self.trains_on = "labeled" if mode == "supervised" else "pu"
        self.svc_: Optional[StreamedLinearSVC] = None
        self.scaler_: Optional[StandardScaler] = None
        self._sample_weight: Optional[np.ndarray] = None
        self._train_indices: Optional[np.ndarray] = None
        self._train_blocks: Optional[List[np.ndarray]] = None
        self._fit_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._score_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def begin(self, source, sample_weight=None, train_indices=None) -> None:
        self._source = source
        self._sample_weight = sample_weight
        self._train_indices = (
            np.asarray(train_indices, dtype=np.int64)
            if train_indices is not None
            else None
        )
        self._ensure_map(source)
        # Training rows are fixed for the duration of one round: the
        # alternation loop calls fit() per inner iteration, and the
        # gather (a full block sweep on a streamed source) plus the map
        # transform are loop-invariant — cache them per begin().  The
        # solve and the whole-of-source score sweep are likewise pure
        # functions of (training labels, weights) within a round, so
        # repeat calls with unchanged inputs (the alternation loop's
        # fixed clamped labels) return the cached result instead of
        # re-running the optimizer and another full block sweep.
        self._train_blocks: Optional[List[np.ndarray]] = None
        self._fit_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._score_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _training_blocks(
        self, y: np.ndarray
    ) -> Tuple[List[np.ndarray], np.ndarray, Optional[np.ndarray]]:
        """(mapped training blocks, labels, weights) for the current fit.

        The mapped blocks are gathered once per :meth:`begin` and
        reused across the round's solve iterations; only the labels are
        re-sliced from the evolving ``y``.
        """
        if self._train_indices is not None:
            if self._train_blocks is None:
                raw = gather_rows(self._source, self._train_indices)
                self._train_blocks = [self._transform(raw)]
            labels = y[self._train_indices]
            weights = (
                self._sample_weight[self._train_indices]
                if self._sample_weight is not None
                else None
            )
        else:
            if self._train_blocks is None:
                self._train_blocks = [
                    self._transform(X)
                    for _, X in self._source.feature_blocks()
                ]
            labels = y
            weights = self._sample_weight
        return self._train_blocks, labels, weights

    def _fit_scaler(self, blocks: List[np.ndarray]) -> StandardScaler:
        """Standardization statistics over the training blocks.

        The single-block case (gathered training rows) matches the
        dense scaler bit-for-bit; the multi-block case accumulates
        streamed moments so the block list is never concatenated.
        """
        if len(blocks) == 1:
            return StandardScaler().fit(blocks[0])
        scaler = StandardScaler()
        count = 0
        total = None
        total_sq = None
        for block in blocks:
            if total is None:
                total = block.sum(axis=0)
                total_sq = (block * block).sum(axis=0)
            else:
                total += block.sum(axis=0)
                total_sq += (block * block).sum(axis=0)
            count += block.shape[0]
        if count == 0:
            raise ModelError("cannot fit scaler on zero rows")
        mean = total / count
        variance = np.maximum(total_sq / count - mean * mean, 0.0)
        std = np.sqrt(variance)
        std[std == 0] = 1.0
        scaler.mean_ = mean
        scaler.scale_ = std
        return scaler

    def _fit_scaler_source(self) -> StandardScaler:
        """Standardization statistics streamed off the bound source.

        Bit-identical to :meth:`_fit_scaler` over the mapped block
        list: a single-block source dense-fits that block, a multi-block
        source accumulates moments in stream order.
        """
        count = 0
        total = None
        total_sq = None
        first: Optional[np.ndarray] = None
        n_blocks = 0
        for _, X in self._source.feature_blocks():
            block = self._transform(np.asarray(X, dtype=np.float64))
            n_blocks += 1
            if n_blocks == 1:
                first = block
            if total is None:
                total = block.sum(axis=0)
                total_sq = (block * block).sum(axis=0)
            else:
                total += block.sum(axis=0)
                total_sq += (block * block).sum(axis=0)
            count += block.shape[0]
        if count == 0:
            raise ModelError("cannot fit scaler on zero rows")
        if n_blocks == 1:
            return StandardScaler().fit(first)
        scaler = StandardScaler()
        mean = total / count
        variance = np.maximum(total_sq / count - mean * mean, 0.0)
        std = np.sqrt(variance)
        std[std == 0] = 1.0
        scaler.mean_ = mean
        scaler.scale_ = std
        return scaler

    def _metrics_registry(self):
        """The bound session's registry, else the process-global one."""
        session = getattr(self._source, "session", None)
        metrics = getattr(session, "metrics", None)
        if metrics is not None:
            return metrics
        return global_registry()

    def _fit_streamed(self, labels: np.ndarray) -> np.ndarray:
        """All-of-H working-set fit (PU mode and unsupervised-indices).

        Streams the source through :meth:`StreamedLinearSVC.fit_source`
        instead of materializing every mapped block for the whole
        solve; in PU mode the clamped rows keep cost ``C`` while every
        other candidate row enters as a soft negative at
        ``unlabeled_C``.
        """
        if self._fit_cache is not None and np.array_equal(
            self._fit_cache[0], labels
        ):
            return self._fit_cache[1].copy()
        if self.scale_features:
            self.scaler_ = self._fit_scaler_source()
        else:
            self.scaler_ = None
        scaler = self.scaler_

        def prepare(X: np.ndarray) -> np.ndarray:
            Z = self._transform(X)
            return scaler.transform(Z) if scaler is not None else Z

        weights = self._sample_weight
        sample_C = None
        if self.mode == "pu":
            n = self._source.n_candidates
            box = np.full(n, self.unlabeled_C)
            if self._train_indices is not None:
                box[self._train_indices] = self.C
            else:
                box[:] = self.C
            if weights is not None:
                box = box * np.asarray(
                    weights, dtype=np.float64
                ).ravel()
            sample_C = box
            weights = None
        self.svc_ = StreamedLinearSVC(
            C=self.C, max_iter=self.max_iter, tol=self.tol,
            seed=self.seed, shrink=self.shrink,
        )
        self.svc_.fit_source(
            self._source,
            labels,
            sample_weight=weights,
            sample_C=sample_C,
            prepare=prepare,
            registry=self._metrics_registry(),
        )
        packed = np.concatenate([self.svc_.coef_, [self.svc_.intercept_]])
        self._fit_cache = (labels.copy(), packed.copy())
        return packed

    def fit(self, y: np.ndarray) -> np.ndarray:
        if self._source is None:
            raise NotFittedError("SVMBackend.begin has not been called")
        y = np.asarray(y).ravel()
        if y.shape[0] != self._source.n_candidates:
            raise ModelError(
                f"label vector length {y.shape[0]} does not match "
                f"{self._source.n_candidates} candidates"
            )
        rinted = np.asarray(np.rint(y), dtype=np.int64)
        if self.mode == "pu" or self._train_indices is None:
            return self._fit_streamed(rinted)
        blocks, labels, weights = self._training_blocks(rinted)
        if self._fit_cache is not None and np.array_equal(
            self._fit_cache[0], labels
        ):
            return self._fit_cache[1].copy()
        if self.scale_features:
            self.scaler_ = self._fit_scaler(blocks)
            blocks = [self.scaler_.transform(block) for block in blocks]
        else:
            self.scaler_ = None
        self.svc_ = StreamedLinearSVC(
            C=self.C, max_iter=self.max_iter, tol=self.tol,
            seed=self.seed, shrink=self.shrink,
        )
        self.svc_.fit_blocks(blocks, labels, sample_weight=weights)
        packed = np.concatenate([self.svc_.coef_, [self.svc_.intercept_]])
        self._fit_cache = (labels.copy(), packed.copy())
        return packed

    def _model_state(self, weights: np.ndarray) -> LinearModelState:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        return LinearModelState(
            coef=weights[:-1],
            intercept=float(weights[-1]),
            map_state=self._map_state(),
            scaler_mean=(
                np.asarray(self.scaler_.mean_)
                if self.scaler_ is not None
                else None
            ),
            scaler_scale=(
                np.asarray(self.scaler_.scale_)
                if self.scaler_ is not None
                else None
            ),
        )

    def scores(self, weights: np.ndarray) -> np.ndarray:
        if self._source is None:
            raise NotFittedError("SVMBackend.begin has not been called")
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if self._score_cache is not None and np.array_equal(
            self._score_cache[0], weights
        ):
            return self._score_cache[1].copy()
        result = _stream_scores(self._source, self._model_state(weights))
        self._score_cache = (weights.copy(), result.copy())
        return result

    def state_dict(self) -> Dict:
        svc_state = None
        if self.svc_ is not None and self.svc_.coef_ is not None:
            svc_state = {
                "coef": np.array(self.svc_.coef_),
                "intercept": self.svc_.intercept_,
                "n_iter": self.svc_.n_iter_,
                "shrink_stats": dict(self.svc_.shrink_stats_),
            }
        scaler_state = None
        if self.scaler_ is not None and self.scaler_.mean_ is not None:
            scaler_state = {
                "mean": np.array(self.scaler_.mean_),
                "scale": np.array(self.scaler_.scale_),
            }
        return {
            "kind": self.kind,
            "C": self.C,
            "mode": self.mode,
            "unlabeled_C": self.unlabeled_C,
            "shrink": self.shrink,
            "map": self._map_state(),
            "scaler": scaler_state,
            "svc": svc_state,
        }

    def load_state_dict(self, state: Dict) -> None:
        self._check_state_kind(state)
        mode = state.get("mode", "supervised")
        if mode != self.mode:
            raise ModelError(
                f"checkpoint holds a {mode!r}-mode SVM backend but this "
                f"backend is {self.mode!r}"
            )
        self._restore_map(state)
        scaler_state = state.get("scaler")
        if scaler_state is not None:
            self.scaler_ = StandardScaler()
            self.scaler_.mean_ = np.asarray(scaler_state["mean"])
            self.scaler_.scale_ = np.asarray(scaler_state["scale"])
        svc_state = state.get("svc")
        if svc_state is not None:
            self.svc_ = StreamedLinearSVC(
                C=self.C, max_iter=self.max_iter, tol=self.tol,
                seed=self.seed, shrink=self.shrink,
            )
            self.svc_.coef_ = np.asarray(svc_state["coef"])
            self.svc_.intercept_ = float(svc_state["intercept"])
            self.svc_.n_iter_ = int(svc_state["n_iter"])
            self.svc_.shrink_stats_ = dict(
                svc_state.get("shrink_stats") or {}
            )


def make_backend(
    model: str = "ridge",
    c: float = 1.0,
    svm_C: float = 1.0,
    seed: int = 0,
    feature_map: Union[str, object, None] = None,
    scale_features: bool = True,
    max_iter: int = 1000,
    tol: float = 1e-4,
    unlabeled_C: float = 0.1,
    shrink: bool = True,
) -> ModelBackend:
    """Build a model backend from names and knobs.

    ``model`` is ``"ridge"``, ``"svm"`` or ``"svm-pu"`` (the
    positive-unlabeled biased SVM, all-of-H training at
    ``unlabeled_C`` per unlabeled row); ``feature_map`` is ``None``, a
    registry name (see :data:`~repro.ml.kernels.FEATURE_MAP_NAMES`) or
    a map instance.  ``seed`` reaches both the map (landmark /
    projection draws) and the SVM's coordinate shuffling; ``shrink``
    toggles the certified working-set sweep (bit-identical either way).
    """
    if model not in BACKEND_NAMES:
        raise ModelError(
            f"unknown model backend {model!r}; choose from {BACKEND_NAMES}"
        )
    if isinstance(feature_map, str):
        if feature_map not in FEATURE_MAP_NAMES:
            raise ModelError(
                f"unknown feature map {feature_map!r}; "
                f"choose from {FEATURE_MAP_NAMES}"
            )
        feature_map = make_feature_map(feature_map, seed=seed)
    if model == "ridge":
        return RidgeBackend(c=c, feature_map=feature_map)
    return SVMBackend(
        C=svm_C,
        scale_features=scale_features,
        seed=seed,
        feature_map=feature_map,
        max_iter=max_iter,
        tol=tol,
        mode="pu" if model == "svm-pu" else "supervised",
        unlabeled_C=unlabeled_C,
        shrink=shrink,
    )
