"""Symmetric nearest-neighbor SFT models.

A model is a finite alphabet plus, for each coordinate axis, a set of
forbidden ordered pairs (value at x, value at x + e_axis).  Symmetry means
every forbidden set is closed under swapping the pair.  The paper's bounds,
the half walk of the transfer and the reflection gluing all rely on that
closure, so ``SftModel`` itself rejects an asymmetric forbidden set; a
model document may ask for the closure with "symmetrize": true.

Axes are numbered 1..d in user-facing messages and file formats, 0..d-1
internally.  Symbols are strings mapped to dense integer ids; every inner
loop works on ids.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import attrgetter


class _Value:
    """Base of the package's value classes: a subclass names its fields in
    ``_fields`` and sets them in ``__init__``.  Instances of one class are
    equal when their fields are, and repr as ``Name(field=value, ...)``.  A
    class declared ``frozen=True`` also hashes by its fields and refuses
    assignment, so its ``__init__`` writes the fields into ``self.__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False):
        key = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Value._refuse

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")


class ModelFormatError(ValueError):
    """Malformed or inconsistent model document."""


class Alphabet(_Value, frozen=True):
    """Ordered distinct symbol names; the id of a symbol is its position."""

    _fields = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        if len(symbols) < 1:
            raise ModelFormatError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ModelFormatError("alphabet symbols must be distinct")
        self.__dict__.update(symbols=symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def id_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except (KeyError, TypeError):  # TypeError: an unhashable JSON value
            raise ModelFormatError(f"unknown symbol {symbol!r}") from None


class SftModel(_Value, frozen=True):
    """Nearest-neighbor model on Z^d with per-axis forbidden pair sets.

    ``forbidden[i]`` holds ordered pairs of symbol ids along internal axis i
    (external axis i+1).  Forbidden sets may differ across axes, but each
    one is closed under pair reversal.  Instances are immutable and hashable.
    """

    _fields = ("dimension", "alphabet", "forbidden")

    def __init__(
        self,
        dimension: int,
        alphabet: Alphabet,
        forbidden: tuple[frozenset[tuple[int, int]], ...],
    ):
        if dimension < 1:
            raise ModelFormatError(f"dimension must be >= 1, got {dimension}")
        if len(forbidden) != dimension:
            raise ModelFormatError(
                f"expected {dimension} forbidden sets, got {len(forbidden)}"
            )
        q = alphabet.size
        for axis, pairs in enumerate(forbidden):
            for pair in pairs:
                a, b = pair
                if not (0 <= a < q and 0 <= b < q):
                    raise ModelFormatError(
                        f"forbidden pair {pair} on axis {axis + 1} is outside the alphabet"
                    )
        syms = alphabet.symbols
        for axis, pairs in enumerate(forbidden):
            for a, b in sorted(pairs):
                if (b, a) not in pairs:
                    x, y = syms[a], syms[b]
                    raise ModelFormatError(
                        f"forbidden sets are not symmetric: axis {axis + 1} has "
                        f"({x},{y}) without ({y},{x}); set \"symmetrize\": true "
                        "to request closure"
                    )
        self.__dict__.update(
            dimension=dimension, alphabet=alphabet, forbidden=forbidden
        )

    @property
    def num_symbols(self) -> int:
        return self.alphabet.size

    @cached_property
    def allowed(self) -> tuple[tuple[tuple[bool, ...], ...], ...]:
        """allowed[axis][a][b]: complement of the forbidden relation."""
        q = self.num_symbols
        return tuple(
            tuple(tuple((a, b) not in pairs for b in range(q)) for a in range(q))
            for pairs in self.forbidden
        )

    @cached_property
    def allowed_masks(self) -> tuple[tuple[int, ...], ...]:
        """allowed_masks[axis][a]: bitmask over b with (a, b) allowed."""
        return tuple(
            tuple(sum(ok << b for b, ok in enumerate(row)) for row in rows)
            for rows in self.allowed
        )

    @cached_property
    def symbol_classes(self) -> tuple[int, ...]:
        """symbol_classes[s]: the smallest r such that the transposition
        (r s) maps every axis's forbidden set onto itself.  Sharing such a
        transposition is an equivalence ((a c) is the conjugate of (b c) by
        (a b)), so r is the smallest symbol of s's class."""
        q = self.num_symbols
        reps = list(range(q))
        for s in range(1, q):
            for r in range(s):
                t = list(range(q))
                t[r], t[s] = s, r
                if all(
                    {(t[a], t[b]) for a, b in pairs} == pairs
                    for pairs in self.forbidden
                ):
                    reps[s] = r
                    break
        return tuple(reps)

    @cached_property
    def values_for_mask(self) -> _MaskValues:
        """Mask -> ascending symbol ids, filled on first lookup."""
        return _MaskValues()


class _MaskValues(dict):
    """Mask -> set-bit positions, ascending; computed per missing mask."""

    def __missing__(self, m: int) -> tuple[int, ...]:
        self[m] = values = tuple(v for v in range(m.bit_length()) if m >> v & 1)
        return values


def drop_last_axis(model: SftModel) -> SftModel:
    """The (d-1)-dimensional sub-model constraining transfer slices."""
    if model.dimension < 2:
        raise ValueError("cannot drop an axis from a 1-dimensional model")
    return SftModel(model.dimension - 1, model.alphabet, model.forbidden[:-1])


def parse_model(text: str) -> SftModel:
    """Parse and validate a model document (UTF-8 JSON text).

    Keys: "dimension" (int >= 1), "alphabet" (distinct strings),
    "forbidden" (one array of symbol pairs per axis), optional boolean
    "symmetrize" requesting reversal closure instead of rejection.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ModelFormatError("the document is nested too deeply") from None
    return model_from_doc(doc)


def model_from_doc(doc) -> SftModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    try:
        dimension = doc["dimension"]
        alphabet_names = doc["alphabet"]
        forbidden_doc = doc["forbidden"]
    except KeyError as exc:
        raise ModelFormatError(f"missing required key {exc.args[0]!r}") from None
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ModelFormatError("dimension must be an integer")
    if dimension < 1:
        raise ModelFormatError(f"dimension must be >= 1, got {dimension}")
    if not isinstance(alphabet_names, list) or not all(
        isinstance(s, str) for s in alphabet_names
    ):
        raise ModelFormatError("alphabet must be an array of strings")
    alphabet = Alphabet(tuple(alphabet_names))
    if not isinstance(forbidden_doc, list):
        raise ModelFormatError("forbidden must be an array with one entry per axis")
    if len(forbidden_doc) != dimension:
        raise ModelFormatError(
            f"forbidden lists {len(forbidden_doc)} axes but dimension is {dimension}"
        )
    forbidden = []
    for axis, pair_list in enumerate(forbidden_doc):
        if not isinstance(pair_list, list):
            raise ModelFormatError(f"forbidden[{axis}] must be an array of pairs")
        pairs = set()
        for pair in pair_list:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ModelFormatError(
                    f"axis {axis + 1}: each forbidden entry must be a 2-element array"
                )
            try:
                a, b = alphabet.id_of(pair[0]), alphabet.id_of(pair[1])
            except ModelFormatError as exc:
                raise ModelFormatError(f"axis {axis + 1}: {exc}") from None
            pairs.add((a, b))
        forbidden.append(pairs)
    closure = doc.get("symmetrize", False)
    if not isinstance(closure, bool):
        raise ModelFormatError("symmetrize must be true or false")
    if closure:
        for pairs in forbidden:
            pairs |= {(b, a) for a, b in pairs}
    return SftModel(dimension, alphabet, tuple(map(frozenset, forbidden)))


def model_to_doc(model: SftModel) -> dict:
    """JSON-compatible document that parse_model maps back to this model."""
    syms = model.alphabet.symbols
    return {
        "dimension": model.dimension,
        "alphabet": list(syms),
        "forbidden": [
            [[syms[a], syms[b]] for a, b in sorted(pairs)]
            for pairs in model.forbidden
        ],
    }


def builtin_model(name: str, d: int, q: int | None = None) -> SftModel:
    """Reference families: "hard-square" and "coloring" (q colors)."""
    if d < 1:
        raise ModelFormatError(f"dimension must be >= 1, got {d}")
    if name == "hard-square":
        if q is not None:
            raise ModelFormatError("hard-square takes no parameter")
        alphabet = Alphabet(("0", "1"))
        pairs = frozenset({(1, 1)})
        return SftModel(d, alphabet, (pairs,) * d)
    if name == "coloring":
        if q is None:
            raise ModelFormatError("coloring requires a color count, e.g. coloring:3")
        if q < 1:
            raise ModelFormatError(f"color count must be >= 1, got {q}")
        alphabet = Alphabet(tuple(f"c{i}" for i in range(q)))
        pairs = frozenset((c, c) for c in range(q))
        return SftModel(d, alphabet, (pairs,) * d)
    raise ModelFormatError(f"unknown builtin model {name!r}")
