"""Seeded benchmark inputs as plain JSON-able tree dicts.

The benchmark owns its inputs: nothing here imports the program, so a change
to the program cannot change what the benchmark feeds it. A tree is a nested
dict in the wire format ``{"id", "label", "value"?, "children"?}`` with
integer ids in preorder.

Item ``i`` of a stream depends only on ``(seed, stream name, i)``, so any
prefix of a stream is reproducible and a run can stop at any length.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Optional, Tuple

Tree = Dict[str, Any]
Pair = Tuple[Tree, Tree]

#: Function words with Zipf-like weights (the head of the list is common).
WORDS = (
    "the of and to a in that is for it as was with be by on not this are or "
    "from at which but have an they were all there would their we been has "
    "when who will more if out so up what its about than into them can only "
    "other time new some could these two may first then any like now over "
    "such after also many before must well back through where much way down "
    "each just those how little good very make still own work long here both "
    "between being under never same another while last might great old year "
    "since against right used take three"
).split()
_WEIGHTS = [1.0 / (rank + 8) for rank in range(len(WORDS))]

#: Distinctive terms that keep independently drawn sentences apart, so the
#: paper's Matching Criterion 3 holds for almost every leaf of a document.
TERMS = [
    head + tail
    for head in "tree node page disk view hash scan join lock plan rule type".split()
    for tail in "set map log base list cost time rate code form size mark".split()
]

#: Document sizes in (sections, paragraphs per section, sentences per
#: paragraph): the paper-sized documents of about 120, 200 and 410 nodes.
DOC_SIZES = {"small": (4, 5, 5), "medium": (6, 6, 5), "large": (8, 8, 6)}

#: Edit mix for document versions: move-heavy, as the paper's Fig. 13 runs.
EDIT_KINDS = (
    ("move_sentence", 3),
    ("move_paragraph", 2),
    ("update", 2),
    ("insert", 2),
    ("delete", 2),
)


def rng_for(seed: int, stream: str, index: int) -> random.Random:
    """The generator of item *index* of *stream* (independent per item)."""
    return random.Random(f"{seed}:{stream}:{index}")


# ---------------------------------------------------------------------------
# Mutable working trees: [label, value, children] lists, renumbered on export
# ---------------------------------------------------------------------------
def _node(label: str, value: Any = None, children: Optional[list] = None) -> list:
    return [label, value, children if children is not None else []]


def export(root: list) -> Tree:
    """Number a working tree in preorder and return it as a wire dict."""
    counter = [0]

    def dump(node: list) -> Tree:
        out: Tree = {"id": counter[0], "label": node[0]}
        counter[0] += 1
        if node[1] is not None:
            out["value"] = node[1]
        if node[2]:
            out["children"] = [dump(child) for child in node[2]]
        return out

    return dump(root)


def size(tree: Tree) -> int:
    """The number of nodes of a wire dict."""
    return 1 + sum(size(child) for child in tree.get("children", ()))


def _copy(node: list) -> list:
    return [node[0], node[1], [_copy(child) for child in node[2]]]


# ---------------------------------------------------------------------------
# Documents and their versions
# ---------------------------------------------------------------------------
def sentence(rng: random.Random, length: int = 12) -> str:
    words = rng.choices(WORDS, weights=_WEIGHTS, k=max(4, length + rng.randint(-3, 3)))
    for index in range(len(words)):
        if rng.random() < 0.35:
            words[index] = rng.choice(TERMS)
    return " ".join(words).capitalize() + "."


def _jitter(rng: random.Random, mean: int) -> int:
    return max(1, mean + rng.randint(-(mean // 4), mean // 4))


def document(rng: random.Random, shape: Tuple[int, int, int]) -> list:
    """A D/Sec/P/S document tree with sentence leaves."""
    sections, paragraphs, sentences = shape
    root = _node("D")
    for _ in range(sections):
        heading = " ".join(rng.choices(TERMS, k=2)).title()
        section = _node("Sec", heading)
        for _ in range(_jitter(rng, paragraphs)):
            section[2].append(
                _node("P", None, [_node("S", sentence(rng)) for _ in range(_jitter(rng, sentences))])
            )
        root[2].append(section)
    return root


def _paragraphs(root: list) -> List[list]:
    return [p for sec in root[2] for p in sec[2] if p[0] == "P"]


def edit_kinds(edits: int) -> List[str]:
    """The kinds of *edits* edits: the mix apportioned exactly (largest
    remainder), so pairs with one edit count differ only in where the
    edits land."""
    total = sum(weight for _, weight in EDIT_KINDS)
    shares = [(edits * weight / total, kind) for kind, weight in EDIT_KINDS]
    counts = {kind: int(share) for share, kind in shares}
    by_remainder = sorted(shares, key=lambda sk: sk[0] - int(sk[0]), reverse=True)
    for _, kind in by_remainder[: edits - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind, _ in EDIT_KINDS for _ in range(counts[kind])]


def edit_document(rng: random.Random, root: list, edits: int) -> list:
    """A new version of *root* after *edits* edits of the move-heavy mix."""
    new = _copy(root)
    kinds = edit_kinds(edits)
    rng.shuffle(kinds)
    for kind in kinds:
        paragraphs = _paragraphs(new)
        para = rng.choice(paragraphs)
        if kind == "move_paragraph":
            for sec in new[2]:
                if para in sec[2] and len(sec[2]) > 1:
                    sec[2].remove(para)
                    target = rng.choice(new[2])
                    target[2].insert(rng.randint(0, len(target[2])), para)
                    break
        elif kind == "insert":
            para[2].insert(rng.randint(0, len(para[2])), _node("S", sentence(rng)))
        elif len(para[2]) < 2:
            continue  # keep every paragraph internal
        elif kind == "delete":
            para[2].pop(rng.randrange(len(para[2])))
        elif kind == "update":
            leaf = rng.choice(para[2])
            words = leaf[1].split(" ")
            for _ in range(rng.randint(1, 2)):
                words[rng.randrange(len(words))] = rng.choice(TERMS)
            leaf[1] = " ".join(words)
        else:  # move_sentence
            leaf = para[2].pop(rng.randrange(len(para[2])))
            target = rng.choice(paragraphs)
            target[2].insert(rng.randint(0, len(target[2])), leaf)
    return new


def document_pair(rng: random.Random, size: str, edits: int) -> Pair:
    old = document(rng, DOC_SIZES[size])
    return export(old), export(edit_document(rng, old, edits))


# ---------------------------------------------------------------------------
# Adversarial shapes (short leaf values throughout)
# ---------------------------------------------------------------------------
def _token(rng: random.Random) -> str:
    """A one-word leaf value; two draws rarely agree."""
    return f"{rng.choice(TERMS)}{rng.randrange(10_000)}"


def chain_pair(rng: random.Random, depth: int) -> Pair:
    """A comb of *depth* nested C nodes, each with one leaf; one leaf changed."""
    leaves = [_token(rng) for _ in range(depth)]

    def build(values: List[str]) -> list:
        root = node = _node("C")
        for index, value in enumerate(values):
            node[2].append(_node("L", value))
            if index + 1 < len(values):
                child = _node("C")
                node[2].append(child)
                node = child
        return root

    changed = list(leaves)
    changed[rng.randrange(depth)] = _token(rng)
    return export(build(leaves)), export(build(changed))


def _edit_leaves(rng: random.Random, parent: list, edits: int, make, first: int = 0) -> None:
    """Insert, delete, update and move edits, in turn from *first* and in a
    shuffled order, among *parent*'s leaf children. Each changes the tree:
    a delete or move under a single leaf inserts instead."""
    kinds = [(first + index) % 4 for index in range(edits)]
    rng.shuffle(kinds)
    for kind in kinds:
        children = parent[2]
        if kind == 0 or (kind != 2 and len(children) < 2):
            children.insert(rng.randint(0, len(children)), make())
        elif kind == 1:
            children.pop(rng.randrange(len(children)))
        elif kind == 2:
            children[rng.randrange(len(children))][1] = make()[1]
        else:  # move a leaf to another place among its siblings
            index = rng.randrange(len(children))
            leaf = children.pop(index)
            place = rng.randrange(len(children))
            children.insert(place + (place >= index), leaf)


def fanout_pair(rng: random.Random, width: int, edits: int) -> Pair:
    """One root with *width* leaves, then *edits* leaf edits."""
    old = _node("R", None, [_node("L", _token(rng)) for _ in range(width)])
    new = _copy(old)
    _edit_leaves(rng, new, edits, lambda: _node("L", _token(rng)))
    return export(old), export(new)


def duplicates_pair(rng: random.Random, groups: int, per_group: int, edits: int) -> Pair:
    """Groups of leaves that all carry one value, so Criterion 3 fails
    everywhere. Edits insert and delete leaves, update a leaf to a second
    shared value and move a leaf into another group; each changes the tree."""
    value, other = _token(rng), _token(rng)
    old = _node("R", None, [
        _node("G", None, [_node("L", value) for _ in range(per_group)]) for _ in range(groups)
    ])
    new = _copy(old)
    kinds = [index % 4 for index in range(edits)]
    rng.shuffle(kinds)
    for kind in kinds:
        source = rng.choice([group for group in new[2] if len(group[2]) > 1])
        children = source[2]
        if kind == 0:
            children.insert(rng.randint(0, len(children)), _node("L", value))
        elif kind == 1:
            children.pop(rng.randrange(len(children)))
        elif kind == 2:
            rng.choice([leaf for leaf in children if leaf[1] == value])[1] = other
        else:
            target = rng.choice([group for group in new[2] if group is not source])
            leaf = children.pop(rng.randrange(len(children)))
            target[2].insert(rng.randint(0, len(target[2])), leaf)
    return export(old), export(new)


def perfect_pair(rng: random.Random, branching: int, height: int, edits: int) -> Pair:
    """A perfect tree; edits touch the leaf level and move whole subtrees.

    Three edits (fewer when the root has fewer children) each move a
    subtree two levels down to an earlier place among its siblings, under
    distinct children of the root, so no move undoes another; the rest
    edit the leaves under a randomly chosen parent.
    """

    def build(level: int) -> list:
        if level == height:
            return _node("L", _token(rng))
        return _node(f"N{level}", None, [build(level + 1) for _ in range(branching)])

    old = build(0)
    new = _copy(old)
    movers = rng.sample(new[2], min(3, branching))
    for index in range(edits - len(movers)):
        node = new
        while node[2][0][2]:
            node = rng.choice(node[2])
        _edit_leaves(rng, node, 1, lambda: _node("L", _token(rng)), first=index)
    for parent in movers:
        parent[2].insert(rng.randint(0, len(parent[2]) - 2), parent[2].pop())
    return export(old), export(new)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------
#: Levels name three input sizes of an in-process workload; the
#: ``.lo``/``.mid``/``.hi`` metrics follow them.
LEVELS = ("lo", "mid", "hi")

#: docs_cold edit counts over 4..32, 30 per size: 22 pairs with 4 edits,
#: 4 with 8, 3 with 16 and one with 32. Cost grows about quadratically
#: with the edits and varies most among the 32-edit pairs, so they stay
#: rare enough that neither they nor the tail metric take over a run: the
#: p95 falls among the 16-edit pairs and each size's median well inside
#: its 4-edit pairs. Every size runs the same sequence, and the cycle is
#: fixed, so every run of a given length has the same mix and only the
#: content depends on the seed.
_EDITS = (4, 4, 8, 4, 4, 16, 4, 4, 4, 8, 4, 4, 4, 32, 4,
          4, 8, 4, 4, 16, 4, 4, 4, 8, 4, 4, 4, 16, 4, 4)
DOCS_CYCLE = tuple(
    (level, size, edits)
    for edits in _EDITS
    for level, size in zip(LEVELS, ("small", "medium", "large"))
)

#: shapes_adversarial cycles through four shapes at three sizes each. Comb
#: depth, fan-out and group count are drawn from each level's range, so the
#: costs form a continuum rather than twelve separate peaks; depth stays at
#: most 200 and fan-out at most 1,000. Each level holds two fan-out pairs,
#: which cost more than the combs and duplicate groups and less than the
#: perfect trees: with an odd count of five, a level's median falls inside
#: the fan-out pairs' costs instead of on the gap between two shapes.
SHAPES_CYCLE = tuple(
    (level, kind, size)
    for index, level in enumerate(LEVELS)
    for kind, size in (
        ("chain", ((25, 50), (51, 100), (101, 200))[index]),
        ("fanout", ((250, 500), (501, 750), (751, 1000))[index]),
        ("duplicates", ((10, 20), (21, 30), (31, 40))[index]),
        ("perfect", ((2, 7), (3, 5), (2, 8))[index]),
        ("fanout", ((250, 500), (501, 750), (751, 1000))[index]),
    )
)


def docs_item(seed: int, index: int) -> Tuple[str, Tree, Tree]:
    level, size, edits = DOCS_CYCLE[index % len(DOCS_CYCLE)]
    old, new = document_pair(rng_for(seed, "docs_cold", index), size, edits)
    return level, old, new


def shapes_item(seed: int, index: int) -> Tuple[str, Tree, Tree]:
    level, kind, size = SHAPES_CYCLE[index % len(SHAPES_CYCLE)]
    rng = rng_for(seed, "shapes_adversarial", index)
    if kind == "perfect":
        old, new = perfect_pair(rng, size[0], size[1], 10)
    elif kind == "chain":
        old, new = chain_pair(rng, rng.randint(*size))
    elif kind == "fanout":
        old, new = fanout_pair(rng, rng.randint(*size), 20)
    else:
        old, new = duplicates_pair(rng, rng.randint(*size), 10, 10)
    return level, old, new


# ---------------------------------------------------------------------------
# The served mix
# ---------------------------------------------------------------------------
#: serve_mixed request kinds, a fixed cycle of ten: six novel pairs (cold
#: compute), three repeats (cache hits, unless evicted) and one identical
#: pair (digest short-circuit).
SERVE_CYCLE = ("novel", "repeat", "novel", "novel", "repeat",
               "novel", "identical", "novel", "repeat", "novel")
_NOVEL_SLOTS = [slot for slot, kind in enumerate(SERVE_CYCLE) if kind == "novel"]

#: Served pairs: the small documents with 4 edits.
SERVE_SIZE, SERVE_EDITS = "small", 4

#: Repeats re-send one of this many most recent novel pairs: about 200 per
#: worker, within its 256-entry script cache, so every repeat is a cache
#: hit, while the novel pairs of a run outgrow the caches and evictions
#: show. Drawn from the whole history instead, repeats missed more often
#: the more requests a run sent, so the share of cache hits, and with it
#: the overall median, moved with the machine's speed.
SERVE_WINDOW = 400


def serve_item(seed: int, index: int) -> Tuple[str, int, Tree, Tree]:
    """Request *index* of serve_mixed: ``(kind, pair, old, new)``.

    *pair* is the index of the request that first sent the pair. A repeat
    re-sends one of the last ``SERVE_WINDOW`` novel pairs, drawn uniformly.
    """
    kind = SERVE_CYCLE[index % len(SERVE_CYCLE)]
    rng = rng_for(seed, "serve_mixed", index)
    if kind == "identical":
        old = export(document(rng, DOC_SIZES[SERVE_SIZE]))
        return kind, index, old, old
    pair = index
    if kind == "repeat":
        cycles, slot = divmod(index, len(SERVE_CYCLE))
        earlier = cycles * len(_NOVEL_SLOTS) + sum(s < slot for s in _NOVEL_SLOTS)
        drawn = rng.randrange(max(0, earlier - SERVE_WINDOW), earlier)
        pair = drawn // len(_NOVEL_SLOTS) * len(SERVE_CYCLE) + _NOVEL_SLOTS[drawn % len(_NOVEL_SLOTS)]
        rng = rng_for(seed, "serve_mixed", pair)
    old, new = document_pair(rng, SERVE_SIZE, SERVE_EDITS)
    return kind, pair, old, new


#: Every stream and how many of its first items the corpus digest covers
#: (one full cycle of the in-process streams; three of serve_mixed).
STREAMS = {
    "docs_cold": (docs_item, len(DOCS_CYCLE)),
    "shapes_adversarial": (shapes_item, len(SHAPES_CYCLE)),
    "serve_mixed": (serve_item, 3 * len(SERVE_CYCLE)),
}


def corpus_digest(items) -> str:
    """SHA-256 over the canonical JSON of *items* (first 16 hex digits)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def stream_digest(seed: int, workload: str) -> str:
    item, cycle = STREAMS[workload]
    return corpus_digest(item(seed, index) for index in range(cycle))
