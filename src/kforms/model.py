"""End-to-end classification pipeline over embedded chains.

Per item: integration matrix -> column readout -> (optional) MLP head ->
softmax cross-entropy.  Training is plain minibatch descent with a
learning-rate-on-plateau schedule, early stopping on validation loss,
and best-validation checkpointing; everything is deterministic given the
config seed.

Items share nothing but the parameters, so ``_map_items`` spreads the
per-item passes of a training batch or an evaluation over one thread
per CPU, each extra thread running a ``KFormClassifier.twin``.  Only
items above ``ROW_BUDGET`` MLP rows leave the calling thread: their
numpy products release the interpreter lock, while a pass over a
smaller item costs less than starting a thread.  Gradients and losses
are still summed in item order, so every output is bit-identical to a
one-thread run.

The embedded simplices are fixed data, so ``train`` computes the
simplex geometry of its items once, before its first evaluation: one
``prepared_geometry`` block over the items of both splits that stay on
the calling thread (at or below ``ROW_BUDGET`` rows), in split order,
around every training pass and every per-epoch evaluation of the run.
Those items are found in the block by their objects; an evaluation
chunk of consecutive items takes one slice of its arrays.  Items above
the budget compute their geometry on every pass, on their lanes.  The
arrays are released when ``train`` returns or raises: no classifier or
result keeps them.
"""

from __future__ import annotations

import contextvars
import copy
import dataclasses
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .forms import NeuralKForm, form_from_header, form_header
from .nn import Mlp, make_optimizer, mlp_from_header, mlp_header, read_blob, write_blob
from .quadrature import (
    DEFAULT_STEPS,
    ROW_BUDGET,
    integration_matrices,
    integration_matrix,
    integration_matrix_backward,
    integration_matrix_forward,
    mlp_rows,
    prepared_geometry,
)
from .simplicial import ChainTuple, Embedding, SimplicialComplex, _is_int, standard_basis_chains

__all__ = [
    "READOUTS",
    "Item",
    "Dataset",
    "TrainConfig",
    "KFormClassifier",
    "TrainResult",
    "FoldResult",
    "CvResult",
    "EvalReport",
    "TrainingDivergence",
    "readout_forward",
    "readout_backward",
    "cross_entropy",
    "build_classifier",
    "train",
    "evaluate",
    "item_workers",
    "kfold_cv",
    "stratified_split",
    "stratified_folds",
    "rechain_dataset",
    "finite_difference_error",
    "save_classifier",
    "load_classifier",
]

READOUTS = ("column_sum", "column_l1", "column_l2")


class TrainingDivergence(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


def readout_forward(kind: str, X: np.ndarray) -> np.ndarray:
    """Collapse an (m, l) integration matrix to an l-vector of column
    statistics.  All three readouts ignore row order."""
    if kind == "column_sum":
        return X.sum(axis=0)
    if kind == "column_l1":
        return np.abs(X).sum(axis=0)
    if kind == "column_l2":
        return np.sqrt((X * X).sum(axis=0))
    raise ValueError(f"readout must be one of {READOUTS}, got {kind!r}")


def readout_backward(kind: str, X: np.ndarray, feats: np.ndarray, d_feats: np.ndarray) -> np.ndarray:
    """dLoss/dX given dLoss/d(readout).  Subgradients at the kinks:
    sign(0) = 0 for l1, and an all-zero column under l2 gets 0."""
    if kind == "column_sum":
        return np.broadcast_to(d_feats, X.shape).copy()
    if kind == "column_l1":
        return np.sign(X) * d_feats
    if kind == "column_l2":
        safe = np.where(feats > 0.0, feats, 1.0)
        return X * np.where(feats > 0.0, d_feats / safe, 0.0)
    raise ValueError(f"readout must be one of {READOUTS}, got {kind!r}")


def _nll(logits: np.ndarray, label: int):
    """Stabilized -log softmax(logits)[label], then z and lse for the gradient."""
    z = logits - logits.max()
    lse = math.log(np.exp(z).sum())
    return lse - z[label], z, lse


def cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stabilized -log softmax(logits)[label] and its logit gradient."""
    loss, z, lse = _nll(logits, label)
    p = np.exp(z - lse)
    p[label] -= 1.0
    return loss, p


@dataclass(frozen=True)
class Item:
    """One data point: an embedded complex plus the chains to integrate."""

    complex: SimplicialComplex
    embedding: Embedding
    chains: ChainTuple
    label: int


@dataclass(frozen=True)
class Dataset:
    items: tuple[Item, ...]
    num_classes: int

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty dataset")
        if not _is_int(self.num_classes) or self.num_classes < 1:
            raise ValueError(f"num_classes must be a positive integer, got {self.num_classes!r}")
        n = self.items[0].embedding.ambient_dim
        for i, it in enumerate(self.items):
            if not _is_int(it.label):
                raise ValueError(f"item {i}: label {it.label!r} is not an integer")
            if not 0 <= it.label < self.num_classes:
                raise ValueError(f"item {i}: label {it.label} outside 0..{self.num_classes - 1}")
            if it.embedding.ambient_dim != n:
                raise ValueError(f"item {i}: ambient dim {it.embedding.ambient_dim} != {n}")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ambient_dim(self) -> int:
        return self.items[0].embedding.ambient_dim

    @property
    def chain_dim(self) -> int:
        return self.items[0].chains.dim

    def labels(self) -> np.ndarray:
        return np.asarray([it.label for it in self.items], dtype=np.intp)

    def subset(self, indices) -> "Dataset":
        return Dataset(tuple(self.items[int(i)] for i in indices), self.num_classes)


def rechain_dataset(data: Dataset, k: int) -> Dataset:
    """Same complexes and embeddings, chains replaced by each item's
    standard k-simplex basis (used e.g. to pit a vertex-evaluation
    baseline against edge integration on identical geometry)."""
    items = tuple(
        Item(it.complex, it.embedding, standard_basis_chains(it.complex, k), it.label)
        for it in data.items
    )
    return Dataset(items, data.num_classes)


def _check_field_types(config) -> None:
    """Raise ValueError for the first field of the dataclass ``config``
    whose value does not fit its annotation, by the rule the CLI applies
    to config values: an int field takes an int, a float field an int or
    a float, a bool field a bool, and only a bool field takes a bool.  A
    numpy integer is refused: it cannot go into a checkpoint's JSON header."""
    kinds = {"int": ("an int", int), "float": ("a number", (int, float)), "bool": ("a bool", bool)}
    for f in dataclasses.fields(config):
        if f.type in kinds:
            name, kind = kinds[f.type]
            value = getattr(config, f.name)
            if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
                raise ValueError(f"{f.name} must be {name}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run (defaults: lr 1e-3, batch 16,
    hidden 16, h=5 integration steps, 100 epochs, early stop patience 40,
    halve lr after 10 stale epochs)."""

    k: int = 1
    num_forms: int = 3
    hidden_dim: int = 16
    steps: int = DEFAULT_STEPS
    lr: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 100
    early_stop_patience: int = 40
    plateau_factor: float = 0.5
    plateau_patience: int = 10
    seed: int = 0
    readout: str = "column_sum"
    optimizer: str = "adam"
    activation: str = "relu"
    use_head: bool = True
    val_fraction: float = 0.2

    def __post_init__(self):
        _check_field_types(self)
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if min(self.num_forms, self.hidden_dim, self.steps, self.batch_size) < 1:
            raise ValueError("num_forms, hidden_dim, steps and batch_size must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if not 0 < self.lr <= sys.float_info.max:
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        if self.early_stop_patience < 1 or self.plateau_patience < 1:
            raise ValueError("patience values must be positive")
        if not 0 < self.plateau_factor <= 1:
            raise ValueError("plateau_factor must be in (0, 1]")
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")


@dataclass
class KFormClassifier:
    """Learnable k-form tuple plus readout and (optional) MLP head.

    With ``head=None`` the readout vector itself is the logit vector
    (softmax directly over the l integrals).

    ``params`` is everything the model learns, in the checkpoint layout:
    the form MLP's ``params``, then the head's.  The classifier adopts
    the MLPs it is given: their values move into its ``params`` and each
    MLP is re-bound to a view of it.  So an optimizer built on one of
    them before that steps an array the model no longer uses, and one
    Mlp must not be shared between classifiers.  Like its MLPs, a
    classifier runs from one thread at a time; ``twin()`` gives another
    thread its own."""

    form: NeuralKForm
    head: Mlp | None
    readout: str
    steps: int = DEFAULT_STEPS
    params: np.ndarray = field(init=False, compare=False, repr=False)
    _twins: list = field(init=False, default_factory=list, compare=False, repr=False)

    def __post_init__(self):
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}")
        if not isinstance(self.steps, int) or isinstance(self.steps, bool) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if self.head is not None and self.head.in_dim != self.form.num_forms:
            raise ValueError(
                f"head expects {self.head.in_dim} features, form yields {self.form.num_forms}"
            )
        head = () if self.head is None else (self.head.params,)
        self.params = np.concatenate([self.form.psi.params, *head])
        split = self.form.psi.num_params
        self.form.psi.bind(self.params[:split])
        if self.head is not None:
            self.head.bind(self.params[split:])

    def twin(self) -> "KFormClassifier":
        """A classifier bound to this one's ``params`` (views, no copy)
        whose form MLP and head are ``Mlp.twin``s: it computes what this
        one computes, and may do so in another thread at the same time."""
        twin = copy.copy(self)
        twin.form = dataclasses.replace(self.form, psi=self.form.psi.twin())
        twin.head = None if self.head is None else self.head.twin()
        twin._twins = []
        return twin

    def features(self, item: Item) -> np.ndarray:
        X = integration_matrix(self.form, item.complex, item.embedding, item.chains, self.steps)
        return readout_forward(self.readout, X)

    def forward(self, item: Item) -> np.ndarray:
        """Logits of ``forward_cached``, whose cache is dropped."""
        return self.forward_cached(item)[0]

    def features_each(self, items):
        """Yield ``features(item)`` for each item in turn, bit for bit; the
        integrations run in chunks across items (``integration_matrices``)."""
        settings = ((it.complex, it.embedding, it.chains) for it in items)
        for X in integration_matrices(self.form, settings, self.steps):
            yield readout_forward(self.readout, X)

    def forward_each(self, items):
        """Yield ``forward(item)`` for each item in turn, bit for bit."""
        for feats in self.features_each(items):
            yield feats if self.head is None else self.head.forward(feats)

    def forward_cached(self, item: Item):
        X, int_cache = integration_matrix_forward(
            self.form, item.complex, item.embedding, item.chains, self.steps
        )
        feats = readout_forward(self.readout, X)
        if self.head is None:
            return feats, (int_cache, X, feats, None)
        logits, head_cache = self.head.forward_cached(feats)
        return logits, (int_cache, X, feats, head_cache)

    def backward(self, cache, d_logits: np.ndarray) -> np.ndarray:
        """Gradient of the cached forward pass, laid out like ``params``."""
        int_cache, X, feats, head_cache = cache
        if self.head is None:
            d_feats = d_logits
        else:
            head_grad, d_feats = self.head.backward(head_cache, d_logits)
        dX = readout_backward(self.readout, X, feats, d_feats)
        form_grad = integration_matrix_backward(self.form, int_cache, dX)
        return form_grad if self.head is None else np.concatenate([form_grad, head_grad])


def build_classifier(
    n: int, num_classes: int, cfg: TrainConfig, rng: np.random.Generator
) -> KFormClassifier:
    """Fresh classifier for R^n data: form MLP [n, H, H/2, C(n,k)*l] and,
    unless headless, head MLP [l, H, H/2, classes]."""
    if num_classes < 2:
        raise ValueError("classification needs at least 2 classes")
    hidden = [cfg.hidden_dim, max(1, cfg.hidden_dim // 2)]
    form = NeuralKForm.init(n, cfg.k, cfg.num_forms, hidden, cfg.activation, rng)
    if cfg.use_head:
        head = Mlp.init([cfg.num_forms, *hidden, num_classes], cfg.activation, rng)
    else:
        if num_classes != cfg.num_forms:
            raise ValueError(
                f"headless mode uses the {cfg.num_forms} readouts as logits; "
                f"dataset has {num_classes} classes"
            )
        head = None
    return KFormClassifier(form, head, cfg.readout, cfg.steps)


def item_workers() -> int:
    """Threads that share one call's items above ``ROW_BUDGET``: one per
    CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _large(classifier: KFormClassifier, items: list) -> list:
    """Positions of the items above ``ROW_BUDGET`` MLP rows."""
    rows = mlp_rows(classifier.form.k, classifier.steps)
    return [i for i, item in enumerate(items) if item.chains.used.size * rows > ROW_BUDGET]


def _map_items(classifier: KFormClassifier, items: list, each):
    """The results of ``each(classifier, items)``, a generator yielding
    one result per item, in item order, bit for bit.

    Items above ``ROW_BUDGET`` MLP rows are dealt round-robin to
    min(``item_workers()``, their number) lanes: the calling thread with
    the classifier, which also takes every smaller item, and one thread
    per other lane with a twin (kept on the classifier for later calls).
    Each lane runs ``each`` over its own items; an item's result depends
    only on the item and ``params``, never on its lane.  The threads are
    joined before this returns, and the first exception in item order
    is raised.  With one lane this is ``each(classifier, items)``, run
    lazily on the calling thread.
    """
    large = _large(classifier, items)
    lanes = min(len(large), item_workers()) if large else 1
    if lanes < 2:
        return each(classifier, items)
    lane_of = [0] * len(items)
    for position, i in enumerate(large):
        lane_of[i] = position % lanes
    members = [[i for i, lane in enumerate(lane_of) if lane == l] for l in range(lanes)]
    while len(classifier._twins) < lanes - 1:
        classifier._twins.append(classifier.twin())
    results, errors = [None] * len(items), {}

    def run(model, indices):
        done = 0
        try:
            for result in each(model, [items[i] for i in indices]):
                results[indices[done]] = result
                done += 1
        except BaseException as exc:  # re-raised on the calling thread, in item order
            errors[indices[done]] = exc

    # each thread runs in a copy of the caller's context, so that the
    # caller's np.errstate and prepared_geometry block hold for every item
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, *pair),
                                name="kforms-items")
               for pair in zip(classifier._twins, members[1:])]
    try:
        for thread in threads:
            thread.start()
        run(classifier, members[0])
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[min(errors)]
    return results


@dataclass(frozen=True)
class EvalReport:
    loss: float
    accuracy: float


def evaluate(classifier: KFormClassifier, data: Dataset) -> EvalReport:
    """Mean loss and accuracy over every item of ``data`` (for some of
    them, pass ``data.subset(indices)``); argmax ties go to the lowest
    class index.  The items' logits come from
    ``KFormClassifier.forward_each``; items above ``ROW_BUDGET`` MLP rows
    are spread over threads (see the module docstring)."""
    items = data.items
    loss_sum, hits = 0.0, 0
    for item, logits in zip(items, _map_items(classifier, items, KFormClassifier.forward_each)):
        loss_sum += _nll(logits, item.label)[0]
        hits += int(np.argmax(logits) == item.label)
    return EvalReport(loss=loss_sum / len(items), accuracy=hits / len(items))


def stratified_split(labels, fraction: float, rng: np.random.Generator):
    """Per-class shuffled split into (rest, held); a singleton class
    stays entirely in rest."""
    labels = np.asarray(labels)
    rest, held = [], []
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        n_held = int(round(fraction * idx.size))
        n_held = min(max(n_held, 1), idx.size - 1) if idx.size > 1 else 0
        held.extend(idx[:n_held])
        rest.extend(idx[n_held:])
    return np.sort(np.asarray(rest, dtype=np.intp)), np.sort(np.asarray(held, dtype=np.intp))


def stratified_folds(labels, num_folds: int, rng: np.random.Generator):
    """Label-stratified partition into num_folds disjoint index arrays."""
    if num_folds < 2:
        raise ValueError("need at least 2 folds")
    labels = np.asarray(labels)
    folds: list[list[int]] = [[] for _ in range(num_folds)]
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        if idx.size < num_folds:
            raise ValueError(
                f"class {cls} has {idx.size} items, fewer than {num_folds} folds"
            )
        for pos, i in enumerate(idx):
            folds[pos % num_folds].append(int(i))
    return [np.sort(np.asarray(f, dtype=np.intp)) for f in folds]


@dataclass
class TrainResult:
    classifier: KFormClassifier
    history: list
    best_epoch: int
    best_val_loss: float
    best_val_accuracy: float
    train_indices: np.ndarray
    val_indices: np.ndarray


def train(cfg: TrainConfig, data: Dataset) -> TrainResult:
    """Minibatch training with per-epoch train/val metrics (epoch 0 is
    the untrained model), lr halving on validation plateau, early
    stopping, and restoration of the best-validation parameters.
    Train/val indices come from a seeded stratified split.  The
    geometry of the items is computed once, for every pass of the run
    (see the module docstring)."""
    if data.chain_dim != cfg.k:
        raise ValueError(f"dataset chains have dimension {data.chain_dim}, config k={cfg.k}")
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = stratified_split(data.labels(), cfg.val_fraction, rng)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValueError("empty train or validation split")

    classifier = build_classifier(data.ambient_dim, data.num_classes, cfg, rng)
    opt = make_optimizer(cfg.optimizer, classifier, cfg.lr)
    train_set, val_set = data.subset(train_idx), data.subset(val_idx)
    both = train_set.items + val_set.items
    large = set(_large(classifier, both))
    small = [(it.complex, it.embedding, it.chains) for i, it in enumerate(both) if i not in large]

    history: list[dict] = []

    def record(epoch: int) -> EvalReport:
        tr = evaluate(classifier, train_set)
        va = evaluate(classifier, val_set)
        for split, rep in (("train", tr), ("val", va)):
            history.append(
                {
                    "epoch": epoch,
                    "split": split,
                    "loss": float(rep.loss),
                    "accuracy": float(rep.accuracy),
                }
            )
        return va

    def gradients(model: KFormClassifier, items):
        """Per item: forward pass, loss, and the loss gradient."""
        for item in items:
            logits, cache = model.forward_cached(item)
            loss, d_logits = cross_entropy(logits, item.label)
            if not math.isfinite(loss):
                raise TrainingDivergence(f"non-finite loss at epoch {epoch}")
            yield model.backward(cache, d_logits)

    with prepared_geometry(classifier.form, small, classifier.steps):
        val_report = record(0)
        best_val_loss, best_val_acc = val_report.loss, val_report.accuracy
        best_epoch = halved = 0  # halved: the epoch of the last lr halving
        best_params = classifier.params.copy()

        for epoch in range(1, cfg.max_epochs + 1):
            order = rng.permutation(len(train_set))
            for start in range(0, order.size, cfg.batch_size):
                batch = [train_set.items[i] for i in order[start : start + cfg.batch_size].tolist()]
                share = 1.0 / len(batch)
                grad = np.zeros_like(classifier.params)
                for item_grad in _map_items(classifier, batch, gradients):
                    grad += share * item_grad
                try:
                    opt.step(grad)
                except FloatingPointError as exc:
                    raise TrainingDivergence(str(exc)) from exc

            val_report = record(epoch)
            if val_report.loss < best_val_loss:
                best_val_loss, best_val_acc = val_report.loss, val_report.accuracy
                best_epoch = epoch
                best_params = classifier.params.copy()
            if epoch - max(best_epoch, halved) >= cfg.plateau_patience:
                opt.lr *= cfg.plateau_factor
                halved = epoch
            if epoch - best_epoch >= cfg.early_stop_patience:
                break

    classifier.params[:] = best_params
    return TrainResult(
        classifier=classifier,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=float(best_val_loss),
        best_val_accuracy=float(best_val_acc),
        train_indices=train_idx,
        val_indices=val_idx,
    )


@dataclass
class FoldResult:
    fold: int
    report: EvalReport
    history: list
    best_epoch: int


@dataclass
class CvResult:
    folds: tuple[FoldResult, ...]
    mean_accuracy: float
    std_accuracy: float


def kfold_cv(cfg: TrainConfig, data: Dataset, folds: int = 5) -> CvResult:
    """Stratified k-fold cross-validation: train on k-1 folds (with an
    inner validation carve-out for early stopping), test on the held-out
    fold, fresh seed per fold."""
    rng = np.random.default_rng(cfg.seed)
    fold_seeds = rng.integers(0, 2**31 - 1, size=folds)
    partition = stratified_folds(data.labels(), folds, rng)
    results = []
    for f in range(folds):
        test_idx = partition[f]
        rest_idx = np.sort(np.concatenate([partition[g] for g in range(folds) if g != f]))
        fold_cfg = dataclasses.replace(cfg, seed=int(fold_seeds[f]))
        outcome = train(fold_cfg, data.subset(rest_idx))
        report = evaluate(outcome.classifier, data.subset(test_idx))
        results.append(
            FoldResult(fold=f, report=report, history=outcome.history, best_epoch=outcome.best_epoch)
        )
    accs = np.asarray([r.report.accuracy for r in results])
    return CvResult(tuple(results), float(accs.mean()), float(accs.std()))


def finite_difference_error(classifier: KFormClassifier, item: Item, corrupt: bool = False) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients (step 1e-5) of the per-item loss, over every parameter of
    the form MLP and the head.

    ``corrupt=True`` perturbs one analytic entry first — a negative
    control proving the comparison can fail.
    """
    logits, cache = classifier.forward_cached(item)
    _, d_logits = cross_entropy(logits, item.label)
    analytic = classifier.backward(cache, d_logits)
    if corrupt:
        analytic[0] += 0.05

    def loss_now() -> float:
        return _nll(classifier.forward(item), item.label)[0]

    theta, eps = classifier.params, 1e-5
    worst = 0.0
    for p in range(theta.size):
        saved = theta[p]
        theta[p] = saved + eps
        up = loss_now()
        theta[p] = saved - eps
        down = loss_now()
        theta[p] = saved
        fd = (up - down) / (2.0 * eps)
        rel = abs(analytic[p] - fd) / max(abs(analytic[p]), abs(fd), 1e-6)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# classifier checkpoints: the classifier's ``params`` (form MLP, then head)
# with a combined JSON header
# ---------------------------------------------------------------------------


def save_classifier(classifier: KFormClassifier, path: str | os.PathLike) -> None:
    header = {
        "kind": "kform-classifier",
        "readout": classifier.readout,
        "steps": classifier.steps,
        "form": form_header(classifier.form),
        "head": mlp_header(classifier.head) if classifier.head is not None else None,
    }
    write_blob(path, header, classifier.params)


def load_classifier(path: str | os.PathLike) -> KFormClassifier:
    header, params = read_blob(path)
    if header.get("kind") != "kform-classifier":
        raise ValueError(f"{path}: expected a classifier checkpoint, found {header.get('kind')!r}")
    split = header["form"]["param_count"] if header["head"] is not None else params.size
    form = form_from_header(header["form"], params[:split])
    head = None if header["head"] is None else mlp_from_header(header["head"], params[split:])
    return KFormClassifier(form, head, header["readout"], header["steps"])
