"""End-to-end classification pipeline over embedded chains.

Per item: integration matrix -> column readout -> (optional) MLP head ->
softmax cross-entropy.  Training is plain minibatch descent with a
learning-rate-on-plateau schedule, early stopping on validation loss,
and best-validation checkpointing; everything is deterministic given the
config seed.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .forms import NeuralKForm, form_from_header, form_header
from .nn import Mlp, make_optimizer, mlp_from_header, mlp_header, read_blob, write_blob
from .quadrature import (
    DEFAULT_STEPS,
    integration_matrix,
    integration_matrix_backward,
    integration_matrix_forward,
)
from .simplicial import ChainTuple, Embedding, SimplicialComplex, standard_basis_chains

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


def cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stabilized -log softmax(logits)[label] and its logit gradient."""
    z = logits - logits.max()
    lse = math.log(np.exp(z).sum())
    loss = lse - z[label]
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
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        n = self.items[0].embedding.ambient_dim
        for i, it in enumerate(self.items):
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
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if min(self.num_forms, self.hidden_dim, self.steps, self.batch_size) < 1:
            raise ValueError("num_forms, hidden_dim, steps and batch_size must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
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
    Mlp must not be shared between classifiers."""

    form: NeuralKForm
    head: Mlp | None
    readout: str
    steps: int = DEFAULT_STEPS
    params: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}")
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

    @property
    def num_classes(self) -> int:
        return self.head.out_dim if self.head is not None else self.form.num_forms

    def features(self, item: Item) -> np.ndarray:
        X = integration_matrix(self.form, item.complex, item.embedding, item.chains, self.steps)
        return readout_forward(self.readout, X)

    def forward(self, item: Item) -> np.ndarray:
        """Logits of ``forward_cached``, bit for bit, keeping no cache."""
        feats = self.features(item)
        return feats if self.head is None else self.head.forward(feats)

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

    def predict(self, item: Item) -> int:
        return int(np.argmax(self.forward(item)))  # ties -> lowest class index


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


@dataclass(frozen=True)
class EvalReport:
    loss: float
    accuracy: float
    per_class_total: tuple[int, ...]
    per_class_correct: tuple[int, ...]


def evaluate(classifier: KFormClassifier, data: Dataset, indices=None) -> EvalReport:
    """Mean loss, accuracy and per-class tallies; argmax ties go to the
    lowest class index."""
    if indices is None:
        indices = range(len(data))
    total = np.zeros(data.num_classes, dtype=np.intp)
    correct = np.zeros(data.num_classes, dtype=np.intp)
    loss_sum = 0.0
    count = 0
    for i in indices:
        item = data.items[int(i)]
        logits = classifier.forward(item)
        loss, _ = cross_entropy(logits, item.label)
        loss_sum += loss
        total[item.label] += 1
        correct[item.label] += int(np.argmax(logits)) == item.label
        count += 1
    if count == 0:
        raise ValueError("cannot evaluate on an empty index set")
    return EvalReport(
        loss=loss_sum / count,
        accuracy=float(correct.sum() / count),
        per_class_total=tuple(int(v) for v in total),
        per_class_correct=tuple(int(v) for v in correct),
    )


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
    Train/val indices come from a seeded stratified split."""
    if data.chain_dim != cfg.k:
        raise ValueError(f"dataset chains have dimension {data.chain_dim}, config k={cfg.k}")
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = stratified_split(data.labels(), cfg.val_fraction, rng)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValueError("empty train or validation split")

    classifier = build_classifier(data.ambient_dim, data.num_classes, cfg, rng)
    opt = make_optimizer(cfg.optimizer, classifier, cfg.lr)

    history: list[dict] = []

    def record(epoch: int) -> EvalReport:
        tr = evaluate(classifier, data, train_idx)
        va = evaluate(classifier, data, val_idx)
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

    val_report = record(0)
    best_val_loss, best_val_acc = val_report.loss, val_report.accuracy
    best_epoch = 0
    best_params = classifier.params.copy()
    stale_plateau = 0
    stale_stop = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(train_idx)
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            share = 1.0 / batch.size
            grad = np.zeros_like(classifier.params)
            for i in batch:
                item = data.items[int(i)]
                logits, cache = classifier.forward_cached(item)
                loss, d_logits = cross_entropy(logits, item.label)
                if not math.isfinite(loss):
                    raise TrainingDivergence(f"non-finite loss at epoch {epoch}")
                grad += share * classifier.backward(cache, d_logits)
            try:
                opt.step(grad)
            except FloatingPointError as exc:
                raise TrainingDivergence(str(exc)) from exc

        val_report = record(epoch)
        if val_report.loss < best_val_loss:
            best_val_loss, best_val_acc = val_report.loss, val_report.accuracy
            best_epoch = epoch
            best_params = classifier.params.copy()
            stale_plateau = 0
            stale_stop = 0
        else:
            stale_plateau += 1
            stale_stop += 1
        if stale_plateau >= cfg.plateau_patience:
            opt.lr *= cfg.plateau_factor
            stale_plateau = 0
        if stale_stop >= cfg.early_stop_patience:
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

    @property
    def accuracies(self) -> tuple[float, ...]:
        return tuple(f.report.accuracy for f in self.folds)


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


def finite_difference_error(
    classifier: KFormClassifier, item: Item, eps: float = 1e-5, corrupt: bool = False
) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients of the per-item loss, over every parameter of the form MLP
    and the head.

    ``corrupt=True`` perturbs one analytic entry first — a negative
    control proving the comparison can fail.
    """
    logits, cache = classifier.forward_cached(item)
    _, d_logits = cross_entropy(logits, item.label)
    analytic = classifier.backward(cache, d_logits)
    if corrupt:
        analytic[0] += 0.05

    def loss_now() -> float:
        loss, _ = cross_entropy(classifier.forward(item), item.label)
        return loss

    theta = classifier.params
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
