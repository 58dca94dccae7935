"""The closed family of term shapes and their s-expression syntax.

Four constructor vocabularies are supported, one per shape kind:

    list   term := "nil" | "(" "cons" int term ")"
    etree  term := "(" "tip" int ")" | "(" "bin" term term ")"
    itree  term := "nilt" | "(" "node" int term term ")"
    htree  term := "(" "leaf" int ")" | "(" "fork" int term term ")"

A Node is one constructor application: a tag, integer label slots, and
ordered child slots.  The child slots are deliberately untyped -- the
same Node class carries subterms (making a Term), intermediate fold
results, collections, or (carrier, subterm) pairs, depending on which
operation is walking the structure.  The left-to-right order of label
and child slots is significant: it defines the element positions used
by contents and by the distributors.  A Labelled is the same skeleton
with one value per node in place of the label slots.

Folds and walks over either structure are instances of two iterative
kernels, so terms nested as deep as a list is long never reach the
interpreter's recursion limit:

    postorder(x, step)   step(node, results of its child slots);
                         optionally every result, in preorder
    preorder(x)          every slot, each node before its children

Both descend through the child slots of Nodes and Labelleds; any other
slot (the EMPTY marker, a payload) is a leaf, worth None to postorder.
Equality walks two structures' corresponding slots together (zip_slots),
and struct_key flattens a term into its preorder token tuple.

The parser is one pass over the text's tokens that runs a close action,
close(tag, labels, kids), on each constructor at its ')': in post-order,
children left to right, as postorder runs it over a term, which _parse
also takes.  parse_term's close action builds the Node; mss_generic's,
the Horner step, scans a text while parsing and builds no term
(tests/test_horner.py::test_text_route_is_parse_then_scan checks it
against parse_term followed by the scan).

The tokens come from str.split when the text has no '+' and no '_'
(_split_tokens).  At the first split token the parser does not accept,
it reads the text again from the token pattern _TOKEN_RE, which reads
every other text too and places every fault.  Both give one result, as
_parse's docstring argues.

Terms are immutable values (NamedTuples all the way down), so they are
safe to share freely, including across threads.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Any, Callable, Iterator, NamedTuple

from .errors import ShapeMismatchError, TermSyntaxError
from .ints import I64_MAX, I64_MIN, check_i64, parse_int, plain_ints


class ShapeKind(Enum):
    LIST = "list"
    ETREE = "etree"
    ITREE = "itree"
    HTREE = "htree"


class CtorSig(NamedTuple):
    n_labels: int
    n_children: int

    @property
    def atom(self) -> bool:  # no slots, so printed bare, without parentheses
        return self.n_labels == self.n_children == 0


SIGNATURES: dict[ShapeKind, dict[str, CtorSig]] = {
    ShapeKind.LIST: {"nil": CtorSig(0, 0), "cons": CtorSig(1, 1)},
    ShapeKind.ETREE: {"tip": CtorSig(1, 0), "bin": CtorSig(0, 2)},
    ShapeKind.ITREE: {"nilt": CtorSig(0, 0), "node": CtorSig(1, 2)},
    ShapeKind.HTREE: {"leaf": CtorSig(1, 0), "fork": CtorSig(1, 2)},
}
# the parser reads at most one label per constructor
assert all(sig.n_labels <= 1 for sigs in SIGNATURES.values() for sig in sigs.values())
# _parse's node count is exact only while no other tag holds an atom's name
assert not any(atom in tag for sigs in SIGNATURES.values() for atom, sig in sigs.items()
               if sig.atom for tag in sigs if tag != atom)


def _same(self, other):
    """Structural equality of two Nodes or two Labelleds, by one
    iterative walk over their corresponding slots."""
    if type(other) is not type(self):
        return NotImplemented
    for x, y in zip_slots(self, other):
        if type(x) in _TREES:  # a Labelled's value comes as a pair of its own
            if (type(y) is not type(x) or x.shape is not y.shape or x.tag != y.tag
                    or len(x.children) != len(y.children)
                    or (type(x) is Node and x.labels != y.labels)):
                return False
        elif type(y) in _TREES or x != y:  # payloads in child slots
            return False
    return True


def _repr(self) -> str:
    """The NamedTuple repr, written along one preorder walk."""
    out: list[str] = []
    ends: list[list[str]] = []  # per open node, the text after each slot to come
    for y in preorder(self):
        if type(y) in _TREES:
            fields = "".join(f"{f}={getattr(y, f)!r}, " for f in y._fields[:-1])
            out.append(f"{type(y).__name__}({fields}children=(")
            k = len(y.children)
            ends.append([",))" if k == 1 else "))"] + [", "] * (k - 1))
            if k:
                continue
        else:
            out.append(repr(y))
        while ends:  # y ends every node whose last slot it is
            out.append(ends[-1].pop())
            if ends[-1]:
                break
            ends.pop()
    return "".join(out)


# Equality, hashing and repr are iterative: list-shaped terms nest as
# deep as they are long, which would blow the interpreter's recursion
# limit under the tuple comparison, hash and repr.  object.__ne__
# inverts __eq__.
class Node(NamedTuple):
    shape: ShapeKind
    tag: str
    labels: tuple
    children: tuple

    __eq__ = _same
    __ne__ = object.__ne__
    __repr__ = _repr

    def __hash__(self):
        return hash(struct_key(self))


class Labelled(NamedTuple):
    """A value per node: a skeleton constructor (tag and labelled
    children, no label slots) carrying one value."""

    value: Any
    shape: ShapeKind
    tag: str
    children: tuple

    __eq__ = _same
    __ne__ = object.__ne__
    __repr__ = _repr

    # the root value and the tag skeleton, which equal structures share
    def __hash__(self):
        return hash((self.value, tuple(x.tag for x in preorder(self))))


_TREES = frozenset((Node, Labelled))  # tested by exact type: the walks are hot


def zip_slots(a, b) -> Iterator[tuple]:
    """Corresponding slots of a and b in preorder, each pair of distinct
    objects once (so the walk stays linear where the sides share parts).

    Once a pair of two Nodes, or of two Labelleds, has been taken, the
    pairs of their child slots (and of Labelled values) follow; any other
    pair is a leaf.  Children are zipped: a consumer that needs equal
    arities checks them before taking the next pair.
    """
    stack = [(a, b)]
    seen: set = set()
    while stack:
        x, y = stack.pop()
        pair = (id(x), id(y))
        if x is y or pair in seen:
            continue
        seen.add(pair)
        yield x, y
        if type(x) is type(y) and type(x) in _TREES:
            stack.extend(zip(x.children[::-1], y.children[::-1]))
            if type(x) is Labelled:
                stack.append((x.value, y.value))


_AFTER = object()  # stack mark: the node below it has its children's results


def postorder(x, step: Callable, out: list | None = None):
    """Fold x bottom-up: every Node or Labelled y becomes
    step(y, results of y's child slots), and every other slot is worth
    None.  Steps run in post-order, children left to right.  A list out
    also receives every step result, in preorder (the order of contents)."""
    stack = [x]
    vals: list = []
    while stack:
        y = stack.pop()
        if y is _AFTER:
            y = stack.pop()
            k = len(vals) - len(y.children)
            kids = tuple(vals[k:])
            del vals[k:]
            v = step(y, kids)
            if out is not None:
                out[stack.pop()] = v
            vals.append(v)
        elif type(y) not in _TREES:
            vals.append(None)
        elif y.children:
            if out is not None:  # y's place in preorder, filled when y is done
                stack.append(len(out))
                out.append(None)
            stack.append(y)
            stack.append(_AFTER)
            stack += y.children[::-1]
        else:
            v = step(y, ())
            if out is not None:
                out.append(v)
            vals.append(v)
    return vals[0]


def preorder(x) -> Iterator:
    """Every slot of x, top-down and left to right: each Node or
    Labelled before its child slots; any other slot as it stands."""
    stack = [x]
    while stack:
        y = stack.pop()
        yield y
        if type(y) in _TREES:
            stack += y.children[::-1]


# A Term is a Node whose child slots hold Terms of the same shape.
Term = Node


class _EmptyMark:
    """The extra 'empty structure' constructor of the pruned grammar."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _EmptyMark()


def make_node(shape: ShapeKind, tag: str, labels: tuple, children: tuple) -> Node:
    """Build a Node, checking the tag and both arities against the shape,
    then each label (a 64-bit integer) and each child (a term of the shape)."""
    sig = SIGNATURES[shape].get(tag)
    if sig is None:
        raise ShapeMismatchError(f"shape {shape.value} has no constructor '{tag}'")
    if len(labels) != sig.n_labels:
        raise ShapeMismatchError(
            f"'{tag}' takes {sig.n_labels} label(s), got {len(labels)}"
        )
    if len(children) != sig.n_children:
        raise ShapeMismatchError(
            f"'{tag}' takes {sig.n_children} child(ren), got {len(children)}"
        )
    labels = tuple(map(_label, labels))
    for c in children:
        if not isinstance(c, Node) or c.shape is not shape:
            raise ShapeMismatchError(f"child must be a {shape.value} term, got {c!r}")
    return Node(shape, tag, labels, tuple(children))


def _label(v: Any) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ShapeMismatchError(f"label must be an integer, got {v!r}")
    return check_i64(v, "label")


def nil() -> Term:
    return make_node(ShapeKind.LIST, "nil", (), ())


def cons(x: int, tail: Term) -> Term:
    return make_node(ShapeKind.LIST, "cons", (x,), (tail,))


def tip(x: int) -> Term:
    return make_node(ShapeKind.ETREE, "tip", (x,), ())


def bin_(left: Term, right: Term) -> Term:
    return make_node(ShapeKind.ETREE, "bin", (), (left, right))


def nilt() -> Term:
    return make_node(ShapeKind.ITREE, "nilt", (), ())


def inode(x: int, left: Term, right: Term) -> Term:
    return make_node(ShapeKind.ITREE, "node", (x,), (left, right))


def leaf(x: int) -> Term:
    return make_node(ShapeKind.HTREE, "leaf", (x,), ())


def fork(x: int, left: Term, right: Term) -> Term:
    return make_node(ShapeKind.HTREE, "fork", (x,), (left, right))


def list_term(xs) -> Term:
    """Build a list-shaped term from a Python iterable of labels."""
    t = nil()
    for x in reversed(list(xs)):
        t = cons(x, t)
    return t


def bimap_node(label_fn: Callable, child_fn: Callable, n: Node) -> Node:
    """Apply label_fn to every label slot and child_fn to every child slot.

    Tag and arities are preserved; this is the functorial action on one
    constructor layer.
    """
    return Node(
        n.shape,
        n.tag,
        tuple(label_fn(l) for l in n.labels),
        tuple(child_fn(c) for c in n.children),
    )


# ---------------------------------------------------------------------------
# serialization

# One match per token: a constructor head "(tag" (whitespace may follow
# the parenthesis), a lone parenthesis, an integer, a symbol, or any other
# single character, which is a fault.  Whitespace (exactly str.isspace)
# separates tokens.
_TOKEN_RE = re.compile(r"\(\s*[A-Za-z][A-Za-z0-9]*|[()]|-?\d+|[A-Za-z][A-Za-z0-9]*|\S")
_INT_RE = re.compile(r"-?\d+")
_SYM_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
MAX_TREE_NODES = 10**5  # the most nodes a parsed term may have

# Parser states at a fault: what the token at the fault was expected to be.
_TERM, _LABEL, _CLOSE, _END = "term", "label", "close", "end"
_NO_ATOM = object()  # the token is no atom's name


def _build(shape: ShapeKind) -> Callable:
    """The close action that builds the Node it closes."""
    new = tuple.__new__  # Node(...) without its Python-level __new__
    return lambda tag, labels, kids: new(Node, (shape, tag, labels, kids))


class _Fault(Exception):
    """A token the parser does not accept: its index, and what was expected."""


def _split_tokens(text: str) -> list[str]:
    """text split at whitespace, once each '(' starts a token and each ')'
    is one: wherever the parser accepts them, _TOKEN_RE's tokens."""
    return text.replace("(", " (").replace(")", " ) ").split()


def _parse(t: Term | str, shape: ShapeKind | None, close: Callable,
           allow_empty: bool = False, out: list | None = None):
    """One pass over the text's tokens, running close(tag, labels, kids) on
    each constructor when its ')' is read, so in post-order with children
    left to right, and returning the root's value; an atom is worth one
    close per parse.  A list out also receives every value in preorder:
    a constructor's slot is reserved at its '(tag' and filled at its ')'.
    The one size check is first: a node is a '(' or an atom's name, not
    'E', so past MAX_TREE_NODES nothing is read.  Given a term, not a
    text, it runs close by postorder, in that order and with that out.

    Tokens come first from _split_tokens when the text has no '+' and no
    '_', labels read by int.  Each split token the read accepts (a '(tag',
    an atom name, a ')', or a label, which int then reads only as -?\\d+)
    is a whole _TOKEN_RE token, as \\s is str.isspace, where split splits.
    So a split read that ends has read the pattern's tokens, and one that
    stops does so where the lists first part or a fault lies, before any
    close action past their common prefix.  Then out is cleared and the
    text read again from _TOKEN_RE, as a text with '+' or '_' is at once;
    a fault there goes to _syntax_error.  Close actions are pure, so an
    error one raises (CarrierError, OverflowError) is either list's."""
    if not isinstance(t, str):
        return postorder(t, lambda n, kids: close(n.tag, n.labels, kids), out=out)
    sigs = SIGNATURES[shape]
    atoms: dict = {tag: close(tag, (), ()) for tag, sig in sigs.items() if sig.atom}
    if t.count("(") + sum(map(t.count, atoms)) > MAX_TREE_NODES:
        raise TermSyntaxError(f"tree larger than {MAX_TREE_NODES} nodes", 0)
    heads = {"(" + tag: (tag, sig.n_labels, sig.n_children)
             for tag, sig in sigs.items() if not sig.atom}
    if allow_empty:
        atoms["E"] = EMPTY
    if plain_ints(t):
        try:
            return _read(_split_tokens(t), int, heads, atoms, close, out)
        except _Fault:
            if out is not None:
                out.clear()
    toks = _TOKEN_RE.findall(t)
    try:
        return _read(toks, parse_int, heads, atoms, close, out)
    except _Fault as fault:
        raise _syntax_error(t, toks, *fault.args, shape) from None


def _read(toks: list, read_int: Callable, heads: dict, atoms: dict, close: Callable,
          out: list | None):
    """_parse's pass over toks, labels read by read_int; it raises _Fault
    at the first token it does not accept, with toks ended by ""."""
    n = len(toks)
    toks.append("")  # the end of input, which every rule below rejects
    frames: list = []  # per open constructor: tag, labels, kids so far, wanted, slot in out
    i = 0
    while True:
        tok = toks[i]
        head = heads.get(tok)
        if head is None:
            value = atoms.get(tok, _NO_ATOM)
            if value is _NO_ATOM:
                if tok[:1] == "(":  # whitespace between '(' and the tag
                    head = heads.get("(" + tok[1:].lstrip())
                if head is None:
                    raise _Fault(i, _TERM)
            elif out is not None and value is not EMPTY:
                out.append(value)
        i += 1
        if head is not None:
            tag, k, wanted = head
            labels: tuple = ()
            if k:  # one label: no constructor has more
                try:
                    v = read_int(toks[i])
                except ValueError:
                    v = None
                if v is None or not I64_MIN <= v <= I64_MAX:
                    raise _Fault(i, _LABEL)
                labels = (v,)
                i += 1
            if wanted:
                slot = None
                if out is not None:
                    slot = len(out)
                    out.append(None)
                frames.append((tag, labels, [], wanted, slot))
                continue
            if toks[i] != ")":
                raise _Fault(i, _CLOSE)
            i += 1
            value = close(tag, labels, ())
            if out is not None:
                out.append(value)
        # pass the finished value up, closing every constructor it fills
        while frames:
            tag, labels, kids, wanted, slot = frames[-1]
            kids.append(value)
            if len(kids) < wanted:
                break
            frames.pop()
            if toks[i] != ")":
                raise _Fault(i, _CLOSE)
            i += 1
            value = close(tag, labels, tuple(kids))
            if out is not None:
                out[slot] = value
        else:
            if i < n:
                raise _Fault(i, _END)
            return value


def _syntax_error(text: str, toks: list, i: int, expected: str,
                  shape: ShapeKind) -> TermSyntaxError:
    """The error for a parse stopped at token i, where `expected` was
    wanted.  A character no token accepts, or an integer outside the 64-bit
    range, anywhere in the text is reported first, the earliest first;
    offsets come from rescanning the text with the token pattern."""
    sigs = SIGNATURES[shape]
    starts = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if _INT_RE.fullmatch(tok):
            if not I64_MIN <= parse_int(tok) <= I64_MAX:
                return TermSyntaxError("integer label outside 64-bit range", m.start())
        elif tok[0] not in "()" and not _SYM_RE.fullmatch(tok):
            return TermSyntaxError(f"unexpected character {tok!r}", m.start())
        starts.append(m.start())
    starts.append(len(text))
    tok, at = toks[i], starts[i]
    if expected == _END:
        message = "unexpected trailing input"
    elif expected == _CLOSE:
        message = "expected ')'" if tok else "missing ')'"
    elif expected == _LABEL:
        message = "expected an integer label" if tok else "missing integer label"
    elif not tok:
        message = "unexpected end of input"
    elif tok == ")":
        message = "unexpected ')'"
    elif _INT_RE.fullmatch(tok):
        message = "integer found where a term was expected"
    elif tok == "(":  # no symbol follows
        at = starts[i + 1]
        message = ("expected a constructor name after '('" if toks[i + 1]
                   else "missing constructor after '('")
    elif tok[0] == "(":
        tag = tok[1:].lstrip()
        at += len(tok) - len(tag)
        message = (f"atom '{tag}' cannot take parentheses" if tag in sigs
                   else "expected a constructor name after '('")
    elif tok in sigs:
        message = f"constructor '{tok}' takes arguments and needs parentheses"
    else:
        message = f"unknown constructor '{tok}' for shape {shape.value}"
    return TermSyntaxError(message, at)


def parse_term(text: str, shape: ShapeKind) -> Term:
    """Parse a term in the shape's s-expression grammar: the parser's
    close action builds each Node.  (horner.mss_generic, given a text,
    runs the same parser with the Horner step as its close action, and
    builds no term.)

    Raises TermSyntaxError (with a byte offset) on malformed input, an
    unknown constructor, or an arity mismatch.  A text whose '(' and atom
    names number more than MAX_TREE_NODES (10^5) is refused at offset 0
    before it is read, whatever its syntax.
    """
    return _parse(text, shape, _build(shape))


def parse_pruned(text: str, shape: ShapeKind):
    """Parse the pruned grammar: the term grammar plus the atom 'E'.
    The node limit is parse_term's, and an 'E' is not a node."""
    return _parse(text, shape, _build(shape), allow_empty=True)


# Atoms are printed bare.  No tag is an atom in one shape and takes slots
# in another, so the tag alone decides and the printer never hashes the
# shape (an Enum, hashed in Python).
_ATOM_TAGS = frozenset(tag for sigs in SIGNATURES.values()
                       for tag, sig in sigs.items() if sig.atom)
assert not any(tag in _ATOM_TAGS for sigs in SIGNATURES.values()
               for tag, sig in sigs.items() if not sig.atom)


def _head(x: Node) -> str:
    """A constructor's own text up to its children: " (tag label"."""
    labels = x.labels
    if len(labels) == 1:  # every labelled constructor has one
        return f" ({x.tag} {labels[0]}"
    return " (" + " ".join([x.tag, *map(str, labels)])


def _emit(t) -> str:
    """The s-expression of t in one preorder pass: every slot is written
    with the space before it, and the root's space is dropped."""
    out: list[str] = []
    stack: list[Any] = [t]
    put, pop, head, atoms = out.append, stack.pop, _head, _ATOM_TAGS
    while stack:
        x = pop()
        if type(x) is str:  # a node's ")"
            put(x)
        elif x is EMPTY:
            put(" E")
        elif x.tag in atoms:
            put(" " + x.tag)
        else:
            put(head(x))
            stack.append(")")
            stack += x.children[::-1]
    return "".join(out)[1:]


def print_term(t: Term) -> str:
    """Canonical s-expression for a term; injective per shape, and
    parse_term(print_term(t), t.shape) == t."""
    if isinstance(t, _EmptyMark):
        raise ShapeMismatchError("empty marker is not a plain term")
    return _emit(t)


def print_pruned(p) -> str:
    """Canonical s-expression in the pruned grammar ('E' for empty)."""
    return _emit(p)


# ---------------------------------------------------------------------------
# canonical order and measurements

def struct_key(x) -> tuple:
    """Total-order key for terms and pruned terms: the flat preorder
    token tuple, 0 for an empty slot and 1, tag, *labels for a node.

    It sorts exactly as the nested key (empty before any node; nodes by
    tag, then labels numerically, then children left to right) would,
    because a tag fixes its arities, so no encoding is a prefix of
    another.  Python compares flat tuples without recursion.
    """
    key: list = []
    for y in preorder(x):
        if isinstance(y, Node):
            key.append(1)
            key.append(y.tag)
            key.extend(y.labels)
        else:
            key.append(0)
    return tuple(key)


def iter_nodes(t: Term) -> Iterator[Node]:
    """Preorder iterator over all nodes (empty markers are skipped)."""
    return (y for y in preorder(t) if isinstance(y, Node))


def term_size(t: Term) -> int:
    """Number of nodes."""
    return sum(1 for _ in iter_nodes(t))
