"""Byte-identity pins for the fragment builders.

Each case serializes a built fragment with `fragment_to_dict` and pins
the SHA-256 of its sorted JSON.  The digests were recorded on the code
that copied the fragment tables by hand at each construction site, so
they hold every builder (completion, one-point extension, star gluing,
sort merging) to that output, fresh `_cNNN`/`_dNNN` ids included.
Never re-record them to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from gen import random_tripod, rename
from treedesk.fileio import fragment_to_dict
from treedesk.fixtures import (family_fragment, random_closed_fragment,
                               random_standard_fragment,
                               three_sort_step_fixture)
from treedesk.glue import build_witness
from treedesk.qe import extend_one_point
from treedesk.structure import complete


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
    "tripod-0": lambda: random_tripod(random.Random(0)),
    **{"witness-%s" % case: (lambda case=case: build_witness(case)[0])
       for case in ("theta", "singular", "regular", "inaccessible")},
    **{"extend-%d" % s: (lambda s=s: _extension(s)) for s in range(3)},
}

PINNED = {
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
