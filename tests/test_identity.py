"""Byte-identity pins for the fragment builders and derived colorings.

Each builder case serializes a built fragment with `fragment_to_dict`
and pins the SHA-256 of its sorted JSON.  The digests were recorded on
the code that copied the fragment tables by hand at each construction
site, so they hold every builder (completion, one-point extension, star
gluing, sort merging) to that output, fresh `_cNNN`/`_dNNN` ids
included.  The tripod, top-sort-only and forest completions were
recorded on the code that rebuilt a Fragment after every completion
step; between them they mint a lim, a pre, a meet root and a lower
sort's root with its G image.

Each coloring case pins the SHA-256 of the sorted table of
`coloring_from_sequence`, recorded on the code that evaluated every
atom of the basis with `qe.eval_formula`.  Only single-sort shapes are
pinned: there the basis order never depended on the hash seed.

Never re-record them to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from gen import random_tripod, rename, top_sort_only, two_root_forest
from treedesk.fileio import fragment_to_dict
from treedesk.fixtures import (family_fragment, random_closed_fragment,
                               random_sequence_fixture,
                               random_standard_fragment,
                               three_sort_step_fixture)
from treedesk.glue import build_witness
from treedesk.ordinal import Ordinal
from treedesk.partition import coloring_from_sequence
from treedesk.qe import extend_one_point
from treedesk.structure import complete, from_standard_tree


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _complete_random(s):
    return complete(random_standard_fragment(random.Random(s), 30))


def _extension(s):
    fa = random_closed_fragment(random.Random(100 + s), 18)
    fb, r = rename(fa, "y_")
    pool = sorted(fa.nodes)
    ext, d = extend_one_point(fa, (pool[0],), pool[-1], fb,
                              (r[pool[0]],), 1)
    return [fragment_to_dict(ext), d]


CASES = {
    **{"complete-random-%d" % s: (lambda s=s: _complete_random(s))
       for s in range(8)},
    "family-chain-16": lambda: family_fragment("chain", 16),
    "family-binary-16": lambda: family_fragment("binary", 16),
    "three-sort": lambda: complete(three_sort_step_fixture()[0]),
    **{"tripod-%d" % s: (lambda s=s: random_tripod(random.Random(s)))
       for s in range(6)},
    **{"complete-top-sort-only-%d" % s: (
        lambda s=s: complete(top_sort_only(random.Random(s))))
       for s in range(2)},
    "complete-forest": lambda: complete(two_root_forest()),
    **{"witness-%s" % case: (lambda case=case: build_witness(case)[0])
       for case in ("theta", "singular", "regular", "inaccessible")},
    **{"extend-%d" % s: (lambda s=s: _extension(s)) for s in range(3)},
}

PINNED = {
    "complete-forest":
        "3d4740d8a293fd0438c8b570f037334400ecadbe39fa85a38b4cdfa4dee7772d",
    "complete-top-sort-only-0":
        "e66b0fe5d438c00da3c05c0994114f1400d8af110187a87f1ce43b8778e8ef0d",
    "complete-top-sort-only-1":
        "fd568cbc26bb22e61e4f732065145c8f9395f49beae455770a9bca8b482e5d12",
    "complete-random-0":
        "9a4a9441ad107b2d596c1cc47c34a5d6db6a859b5d21771fc01936e0fa6d59f2",
    "complete-random-1":
        "d9b267e8a98f7c2b392ca58b8ef95347b265ba609ab9d176d05391008ceba5b3",
    "complete-random-2":
        "fcc29868295acdfca6ddba9088dad7666cbd06c69a766b8dd5fe5f78e7ebdd14",
    "complete-random-3":
        "ac9fe91b205c5e68c941da72fe49e5c8bdc8da4ba6f8efb59d83fa5abcbcaf52",
    "complete-random-4":
        "4fc4e79bb4aa8f6d22e6f6153dde297afd8437ae2d23ee16c4745d4d84a29a82",
    "complete-random-5":
        "2cf54a62c1d4a073845ea36ad37ed099cadf7c4f552a4c8a7151c27dd19b7e01",
    "complete-random-6":
        "244ce377bc3e7807e0c18d52855da15e9aa5f389f5d83d79a1464446877fe5cf",
    "complete-random-7":
        "392d570c72d8617244ae6edea54b275ef60ea76da53b01520386edfdfce2c14f",
    "extend-0":
        "9753c9ee56e60225dfe16918d08e58f185cb880603d9373633dd0870adf799b0",
    "extend-1":
        "34332f34f5b668b39407db33c21776ae6edb1630e090882e3e56f0b2271967cb",
    "extend-2":
        "ba2fbf211d75ddaae15fba73b3b5e1ef8ee58567adecc5614177c525f626cb15",
    "family-binary-16":
        "f83860c23866451c6e1cf90974e65726fbedff6cb38a62a5c90d209b9fd596be",
    "family-chain-16":
        "fdbc03a4874fab0a49131cf893b7a86e6c7a3becf01924a37fa747bbdb0ad5c5",
    "three-sort":
        "ed78052ca5159cca6d0aabd5d384984f4016bc6f1b206fb65c6884e790c20131",
    "tripod-0":
        "5946a4000622daf8a0874738fd6ea8101eecd9c857405612f8299bd3b96d7efa",
    "tripod-1":
        "f4fc75d6027c7aaf1a6ad19f41690a7eadd02985b51cf13a7ee9f516c5ce7774",
    "tripod-2":
        "f2ce3d9e336e7683b1f79044104adf65af57cb879a0e982d7f0bf1ef0937013c",
    "tripod-3":
        "a3d77d3ae665a5ba1bc6ff709c1ec9680e54e1f2825da3ecfedb235fa63f7988",
    "tripod-4":
        "53adfb93b3f49b33afeb7b5b3f5ef7ccc790cf72538c1233715a6607896a11a3",
    "tripod-5":
        "59cdba7df1cfa50f458ea497dc5155bf6a5fcd883f79fd9700ba5a08ee045265",
    "witness-inaccessible":
        "eb138ae0c20c57b606e6acf97b43933b66cdb515b9c8760e57cccebda80509f0",
    "witness-regular":
        "f2f11a8087b9a54c1947a4d24450e37df5792294ef14a2ea8c46718145ac1db0",
    "witness-singular":
        "9ad950c96a652a3c1d5e22dea1765b9086622d11c726f2d3afcd72f00b067d64",
    "witness-theta":
        "f913f909a3ed1c658a4ec5098692038e3856fbff96e53fcbea55e216ee16b48a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_builder_output_is_pinned(name):
    out = CASES[name]()
    payload = out if isinstance(out, list) else fragment_to_dict(out)
    assert _digest(payload) == PINNED[name]


def _sequence_coloring(s):
    f, seq = random_sequence_fixture(random.Random(s))
    return coloring_from_sequence(f, seq, k=1, arity=2)


def _chain_tail_coloring():
    levels = {"n%02d" % i: Ordinal.nat(i) for i in range(8)}
    names = sorted(levels)
    edges = {(names[i], names[j]) for i in range(8)
             for j in range(i + 1, 8)}
    f = from_standard_tree(levels, edges)
    return coloring_from_sequence(f, names, k=0, arity=2)


def _arity4_coloring(s):
    f = random_closed_fragment(random.Random(s), 18)
    pool = sorted(x for x in f.nodes if f.sort.get(x) is not None)
    return coloring_from_sequence(f, pool[:7], k=0, arity=4)


COLORING_CASES = {
    **{"sequence-%d" % s: (lambda s=s: _sequence_coloring(s))
       for s in range(8)},
    "chain-tail": _chain_tail_coloring,
    **{"closed-arity4-%d" % s: (lambda s=s: _arity4_coloring(s))
       for s in (0, 2)},
}

COLORING_PINNED = {
    "sequence-0":
        "245cf6d043cede5e4c41293aaa4fa0cfc69b232782e9203ca8def3adc81f6751",
    "sequence-1":
        "a62636ab237fdb776488c6c4da983ae3ae9e06d32e2508b89aa6cc3b0f9a8ae6",
    "sequence-2":
        "d2035716268a60937c4c3953c91b3bd723a394395b52a91422831bc3e493e38c",
    "sequence-3":
        "e24f6e85f394d9b96d93b9e4c3a839b1e7e217713cd2e6f9f190dad0c9bd86c8",
    "sequence-4":
        "39e14b5d6f491637bba3efdfb1471bd42aa561f43c32352cbfb23968ef85a81b",
    "sequence-5":
        "cbb637f10296722ef8e8ee2ddf5481c0fea551f1736d7cf35de6ed1c02d8df80",
    "sequence-6":
        "719dc79266db030461b69d20be9577e72cfd48d03ae45c85e64e6ae288ffce10",
    "sequence-7":
        "69b993e8b911edee7309366eb8f62fe944d77d6461b24d4254a02697b04902d6",
    "chain-tail":
        "016f3d543ec942bcb836eaa5fcd443a4f0d580579c49703093fbf5266748124b",
    "closed-arity4-0":
        "257f771efc72903a06b59d8fad07c95dce315fe92e01c7c683b1534879ab1bbc",
    "closed-arity4-2":
        "723536954be1f0d926b52c9f4d3a462aaeca97476694c6eace7dbc09e9e5ea27",
}


@pytest.mark.parametrize("name", sorted(COLORING_CASES))
def test_coloring_table_is_pinned(name):
    table = COLORING_CASES[name]().table
    rows = sorted([list(key), c] for key, c in table.items())
    assert _digest(rows) == COLORING_PINNED[name]
