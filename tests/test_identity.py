"""Byte-identity pins for the fragment builders and derived colorings.

Each builder case serializes a built fragment with `fragment_to_dict`
(a case that returns a list is taken as it is) and pins the SHA-256 of
its sorted JSON.  The digests were recorded on the code that copied the
fragment tables by hand at each construction site, so they hold every
builder (completion, one-point extension, star gluing, sort merging) to
that output, fresh `_cNNN`/`_dNNN` ids included.  The tripod, top-sort-only and forest completions were
recorded on the code that rebuilt a Fragment after every completion
step; between them they mint a lim, a pre, a meet root and a lower
sort's root with its G image.  The random completions past seed 7, the
extensions at each m1 and the validator reports on corrupted trees were
recorded on the code that restarted completion's scan after every fix
and checked down-sets with pairwise loops.  The controls of sizes 1-15
and the witnesses built with non-default parameters were recorded on
the code that declared the lim, pre, suc and meet tables of the
witness and control trees by hand.

Each coloring case pins the SHA-256 of the sorted table of
`coloring_from_sequence`, recorded on the code that evaluated every
atom of the basis with `qe.eval_formula`.  Only single-sort shapes are
pinned: there the basis order never depended on the hash seed.  The
chain-quadruples case, the only one that colours tuples of length 4
at rank 1, was recorded on the code that built and indexed the whole
atomic basis of each half-length (4,868,103 atoms for halves of two).

Each type case pins the SHA-256 of a sweep over one closed fragment:
for every rank and parameter prefix, the `tp_code` of every node, the
`count_type_classes` count, the `equiv_k` maps from each node to its
first equal-coded node and to its predecessor in a renamed copy, and,
on single-sort fragments, every `questionnaire_code` record.  They were
recorded on the code that checked closedness in every `closure` call
and refined by scanning the whole meet and G tables for each element.
The 64-node family cases pin the `tp_code` of every node and the
`count_type_classes` count at ranks 0-2 and parameter prefixes 1, 4
and 8; they were recorded, under PYTHONHASHSEED 0 and 2, on the code
that paired the whole set at every closure round, listed the closure's
meets once for refinement and again for the record, and refined
settled cells with full signatures.  The theta cases sweep the two
constant-carrying theta-mode fragments of `gen` at ranks 0-2, the only
pins whose constants feed the initial colours, the closure and the
record; they were recorded, under PYTHONHASHSEED 0 and 2, on the code
that closed each tuple's generators from scratch, rebuilt the
refinement index in every individualization branch and counted type
classes by their code bytes.

Each CLI case runs one of the 22 leaf subcommands with `--format json`
on files written like the `tests/test_cli.py` fixtures and pins the
SHA-256 of the report with `timing` dropped and the files' directory
written as DIR, followed by the bytes of the file it writes with `-o` or
`--csv`, if any; the exit code must equal the report's status.  The
validate, complete, close, types-code, types-count, qe-extend,
indis-classify and glue-star cases were recorded, under PYTHONHASHSEED 0
and 2, on the code whose fragment tables were plain dicts; the other
fourteen, under both seeds, on the code that dispatched each subcommand
group through its own if/elif chain and ran `ramsey homog` without the
tuple budget.

The guess-sequence case pins the SHA-256 of a sweep over the six colored
chains of acceptance criterion 11: `q_enumerate` at lengths 0-3 and 1-2
colors, with `e_q` and `is_prefix_of` on every pair of its guess
sequences and `d_q` and `validate_qnode` on each; the lift of every base
node; `validate_qnode` on 500 seeded malformed sequences per chain; and
the inaccessible witness.  It was recorded on the code that stored each
sequence's Gamma as a {position: d-type} map and listed tightness
witnesses in level order.

One subprocess under PYTHONHASHSEED 2 recomputes every CLI pin, one pin
of each builder, coloring and type family, the guess-sequence pin and
the violation line of every `tests/test_cli.py` wrong-input case, so
that no pin holds by the hash seed of the process that runs the tests.

Never re-record them to make a refactor pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import pytest

from gen import (chain, corrupted_fragment, random_closed_fragment,
                 random_sequence_fixture, random_standard_fragment,
                 random_tripod, rename, six_chain_base, theta_single_sort,
                 theta_two_sort, three_sort_step_fixture, top_sort_only,
                 two_root_forest)
from test_cli import WRONG_INPUTS, write_wrong_input_files

import treedesk
from treedesk.cli import main
from treedesk.errors import TreedeskError
from treedesk.fileio import (fragment_to_dict, ptriple_to_dict,
                             save_coloring, save_fragment, save_ptriple)
from treedesk.glue import build_control, build_witness
from treedesk.ordinal import Ordinal
from treedesk.partition import (Coloring, DType, QNode, _qnode_key,
                                coloring_from_sequence, d_q, e_q,
                                lift_element, q_enumerate, validate_qnode)
from treedesk.qe import extend_one_point
from treedesk.structure import complete, from_standard_tree, validate
from treedesk.types import (count_type_classes, equiv_k, family_fragment,
                            family_parameter_pool, questionnaire_code,
                            tp_code)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _complete_random(s):
    return complete(random_standard_fragment(random.Random(s), 30))


def _extension(fa, m1=1, middle=False):
    """Extension of fa's renamed copy at rank m1 by the image of fa's
    last (or middle) node, over its first node."""
    fb, r = rename(fa, "y_")
    pool = sorted(fa.nodes)
    c = pool[len(pool) // 2] if middle else pool[-1]
    ext, d = extend_one_point(fa, (pool[0],), c, fb, (r[pool[0]],), m1)
    return [fragment_to_dict(ext), d]


def _closed(s):
    return random_closed_fragment(random.Random(100 + s), 18)


WITNESS_PARAMS = (
    ("witness-theta-3", "theta", {"theta_bound": 3}),
    ("witness-singular-2-2-3", "singular", {"lambdas": (2, 2, 3)}),
    ("witness-regular-3-3", "regular", {"branches": 3, "fan": 3}),
)

CASES = {
    **{"complete-random-%d" % s: (lambda s=s: _complete_random(s))
       for s in range(40)},
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
    **{name: (lambda case=case, kw=kw: build_witness(case, **kw)[0])
       for name, case, kw in WITNESS_PARAMS},
    **{"control-%d" % n: (lambda n=n: build_control(n)[0])
       for n in range(1, 16)},
    **{"extend-%d" % s: (lambda s=s: _extension(_closed(s)))
       for s in range(3)},
    **{"extend-m%d-closed" % m1: (lambda m1=m1: _extension(_closed(3), m1))
       for m1 in range(3)},
    **{"extend-m%d-tripod" % m1: (lambda m1=m1: _extension(
        random_tripod(random.Random(2)), m1, middle=True))
       for m1 in range(3)},
    **{"validate-corrupted-%d" % s: (
        lambda s=s: validate(corrupted_fragment(random.Random(s))))
       for s in range(10)},
}

PINNED = {
    "control-1":
        "8381a3d2d68b5d04c2e00de963a4e41b704cf630169279dc81de3a5b36377de7",
    "control-2":
        "c2ecbcd98456eb3504442b6c3167f4dfc44b63cc16af6370224e4dc6d05a7825",
    "control-3":
        "1e6fff78853765d3da95a7b6086a89bfdb84388f2cd5dc1adc87088486ba527f",
    "control-4":
        "9ecd3173158054ae8df18ced4487ba2deb58cbd35e445353fa3e8ccbec9ad152",
    "control-5":
        "4581b92026b62f7cc694960358e5e0ffd83f1a96ce652bcef2e03c1e6aa923fe",
    "control-6":
        "79ea4371d57005ab7ab431af5d9ee25de8f67775edeb3c128cede7d917b5c86f",
    "control-7":
        "598a1fec9fa6cd5e216b06dbfc00ef98b512e01ad34bd257cff2c75bca32affd",
    "control-8":
        "e7156e56904220890b129d719a512b3eb9647c021964da3b074f21bd44230379",
    "control-9":
        "2cf2d2c1da84deebcc3355ffbe6b8c08267498bd053cd3b1bf272c91ebe65426",
    "control-10":
        "010e07b0c93d48a5e023add2bbb0cce7f6c7e41f2a5db64ad24558bbc554c86e",
    "control-11":
        "2f521dbd96f41986cdb59f6155ac35cc2add6337febc87695e3ec12047bb3d1e",
    "control-12":
        "40338b5c73eb818113fabda18bdcac313963458fa3525d1fde66b90d2102fc49",
    "control-13":
        "1bc2d705fbaea9f6682cb27c0b7f1194995f0b1d597dcf31e811a3618629d8cb",
    "control-14":
        "bca0b2e5a8215099efb370634f9379abaaa1e30de0ede8218b81e3c6733fd90a",
    "control-15":
        "aee39e4924cefa1482ac40596905aa826868b53ec6801308fef33c9c1d69fe23",
    "witness-theta-3":
        "c928e2ae3e133313f04ce9213f5f2d821bfee525847f5cdfe47d6728341bf87e",
    "witness-singular-2-2-3":
        "52a5d6f5abfd5e52531c3507641ca1c883b0b6a2f3b04bf2b3b31fe43f9e09aa",
    "witness-regular-3-3":
        "45c015e94f68bff2e84521ce5e3f2fd1237e8b34933934dc5fa93808cddb9630",
    "complete-forest":
        "3d4740d8a293fd0438c8b570f037334400ecadbe39fa85a38b4cdfa4dee7772d",
    "complete-random-0":
        "9a4a9441ad107b2d596c1cc47c34a5d6db6a859b5d21771fc01936e0fa6d59f2",
    "complete-random-1":
        "d9b267e8a98f7c2b392ca58b8ef95347b265ba609ab9d176d05391008ceba5b3",
    "complete-random-10":
        "b973dca4f1d2f7a910e52ed998e3b9a712825587f524e51f7ead38ec08b9a0db",
    "complete-random-11":
        "292fcf19519afe93633e67e154b11178c3f81da1e62cb6a800ab3677513dced0",
    "complete-random-12":
        "37e39b877681e42e3cd7070b3311b4c8a84fd0692cbe44ad99e67fd7c63d1e49",
    "complete-random-13":
        "0aab0d03d1bdccc716fab1fec5cd9fa71786eb5afd4c79aa3f38a7a97858b5ca",
    "complete-random-14":
        "ad75a9f7d9b082b6157d38240ae44bbeeab8a86fba266d02297e21411ef963f1",
    "complete-random-15":
        "dfb2c76645f8705e554c405408fa345be5bf831c5fa107537fa4dfcb27044056",
    "complete-random-16":
        "7677c022b6130a77e048719f4c1d9f9300664acc8083d6d5004fe6279270f309",
    "complete-random-17":
        "cf8c9787dfde732bc37ffe640aa70a196e9aa81f1c5ae5c2ba8c948d833f9956",
    "complete-random-18":
        "27e0eb22559b886f1595a83a83750d7a9c515ddc641609daf5819272acdfb8b2",
    "complete-random-19":
        "9bc2703f96e410fbf9bb6ff82ff398740ccb4e02e2d70f2c0d6470c8126cd8bf",
    "complete-random-2":
        "fcc29868295acdfca6ddba9088dad7666cbd06c69a766b8dd5fe5f78e7ebdd14",
    "complete-random-20":
        "9daa7f302481f6b4d5e132129bc8f8ba158dc6b52a5fd66568288b0cf4c57f0a",
    "complete-random-21":
        "21ea3a273bd0dfa42056bce54ed69687414af849a0c1183239cbf3d511a2735f",
    "complete-random-22":
        "53be715d3dcf052bfb8b3e71804bd6b79c2a0bc5c108d5fe97878b39702b153b",
    "complete-random-23":
        "f4d29ba0e565ec890791b04442feed599d74085bfa2bc547681a14b26bd817b7",
    "complete-random-24":
        "39737dd84a2e6b4d197e026c3894d4a4270ebcfb3e428c27c1527d2e150dadcf",
    "complete-random-25":
        "5688e494e45f3800c762c4d946b2a1e341add19f1c5e1c7c53e1d381bf2ca811",
    "complete-random-26":
        "f15089f89aa64b51e921f7ff401028b3f6742805d4dd30171fc09b931a8b6987",
    "complete-random-27":
        "48f73ae81e4999f73d7f9fee91aba434d3e21f2823204fd57b7cd2b4944a6f0e",
    "complete-random-28":
        "e57c4eff9d49e72c306987b09da039328c119682918f5765e8411fea4c294846",
    "complete-random-29":
        "b470ceac1e686dce94f7abcf3f95a87b8f4a4f307432837f3a32ca11eb41a64a",
    "complete-random-3":
        "ac9fe91b205c5e68c941da72fe49e5c8bdc8da4ba6f8efb59d83fa5abcbcaf52",
    "complete-random-30":
        "29b67f11c4d8361445ea0b9d544f91743aebb83b28b41d623754538b00ba5c28",
    "complete-random-31":
        "b622e13d72e130cbcfdd4fbd02f5d08695ce1f0358035816ce5e1f938feafc4a",
    "complete-random-32":
        "9998f80aa02c59adef09e22e619dfa6fbba888d4106d16bfc3367cd3c065786b",
    "complete-random-33":
        "3374f25f0d25e383f615bf22556749451e3844d1a60b006b900547d962dcd5b5",
    "complete-random-34":
        "78a9091ccbe80eae232e03bbc90824ee60fe92d235dc48424db5a817bd99308f",
    "complete-random-35":
        "f89442a365122d0aa7d52ca6d84c54669dac5f5669d98e7faa358e67bf3467f4",
    "complete-random-36":
        "adf4e1a49bde9e2abc605f3680b773a48e9e7bbdd3a371a5a4d5752201d72492",
    "complete-random-37":
        "68129614e4ff51a8da4006bbfed70c211d763b72301b77e5d68a8023451fd239",
    "complete-random-38":
        "1c311a661e79ce7f2565813e1017629f7dc48ea4041ec172e1a71f0fa017264d",
    "complete-random-39":
        "341e2195c762cc7955d79fc6a148898fec189ad48e447c7d75731ae278bc7a3a",
    "complete-random-4":
        "4fc4e79bb4aa8f6d22e6f6153dde297afd8437ae2d23ee16c4745d4d84a29a82",
    "complete-random-5":
        "2cf54a62c1d4a073845ea36ad37ed099cadf7c4f552a4c8a7151c27dd19b7e01",
    "complete-random-6":
        "244ce377bc3e7807e0c18d52855da15e9aa5f389f5d83d79a1464446877fe5cf",
    "complete-random-7":
        "392d570c72d8617244ae6edea54b275ef60ea76da53b01520386edfdfce2c14f",
    "complete-random-8":
        "1803190b4f26de6ee3fd4c1ee644035fa9e284962d047c238ab649fad2d794ea",
    "complete-random-9":
        "4615017ff281165f6856196eaa10326b9792994de5444f047cf980f358c3c314",
    "complete-top-sort-only-0":
        "e66b0fe5d438c00da3c05c0994114f1400d8af110187a87f1ce43b8778e8ef0d",
    "complete-top-sort-only-1":
        "fd568cbc26bb22e61e4f732065145c8f9395f49beae455770a9bca8b482e5d12",
    "extend-0":
        "9753c9ee56e60225dfe16918d08e58f185cb880603d9373633dd0870adf799b0",
    "extend-1":
        "34332f34f5b668b39407db33c21776ae6edb1630e090882e3e56f0b2271967cb",
    "extend-2":
        "ba2fbf211d75ddaae15fba73b3b5e1ef8ee58567adecc5614177c525f626cb15",
    "extend-m0-closed":
        "9af7f3f2760b1aacbe0bb824054acbf65cfa99f40efc7f4d6eebfc03711d492c",
    "extend-m0-tripod":
        "cc6c82993c67b120e073d6b70957f5de44681a6440e13a75b255ecd9e3ebf6ca",
    "extend-m1-closed":
        "ab6f5375dc18dfbe3378f45a19d6ff5f087c7695969c7a299544a91cadc4f559",
    "extend-m1-tripod":
        "f90e9b95ed76752aca5b9e3263a019d352c0a0fc8e9cabfe95b92335a5785129",
    "extend-m2-closed":
        "ab6f5375dc18dfbe3378f45a19d6ff5f087c7695969c7a299544a91cadc4f559",
    "extend-m2-tripod":
        "f90e9b95ed76752aca5b9e3263a019d352c0a0fc8e9cabfe95b92335a5785129",
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
    "validate-corrupted-0":
        "07d45a7ec1bbe62b4dd7fb7804ee0cc8c09ff89694b1f8fcbc441114232bbb98",
    "validate-corrupted-1":
        "37623600861888558f1353e8426b3e6b9c7e2c15ca293bf2f08e6444c48781db",
    "validate-corrupted-2":
        "49f22c556d86524c40554f3b1872555f9aaa01b9d827b09ddb49939e1fa3f137",
    "validate-corrupted-3":
        "06e084044354849ef026c8142294f3f8a45e2246339c3c2125acff0aacb12501",
    "validate-corrupted-4":
        "e4b805753b861a662c722bc5621261886816a7a5b921bb99781808a596cbca79",
    "validate-corrupted-5":
        "012c3737d6d79b076b4d649d9c0a758cb1c7d5986c671dbd24f7544002aa7224",
    "validate-corrupted-6":
        "939e5c7ed968b0575c69daca5c2e7dc3b26c5734f3627f97462c9acb9e229bbe",
    "validate-corrupted-7":
        "aea81fa3821dcaa16e27fd01df5ee35f3834aecba259077fae92b4640d22ea75",
    "validate-corrupted-8":
        "1d6b350671485f3c95bd4d2261d835afbca65d5864461bb241fa9775d5e7405d",
    "validate-corrupted-9":
        "224c7fcf8e52eb97af76852044b48536aaf04b44671897cbfd01723498e16736",
    "witness-inaccessible":
        "eb138ae0c20c57b606e6acf97b43933b66cdb515b9c8760e57cccebda80509f0",
    "witness-regular":
        "f2f11a8087b9a54c1947a4d24450e37df5792294ef14a2ea8c46718145ac1db0",
    "witness-singular":
        "9ad950c96a652a3c1d5e22dea1765b9086622d11c726f2d3afcd72f00b067d64",
    "witness-theta":
        "f913f909a3ed1c658a4ec5098692038e3856fbff96e53fcbea55e216ee16b48a",
}


def _builder_digest(name):
    out = CASES[name]()
    return _digest(out if isinstance(out, list) else fragment_to_dict(out))


@pytest.mark.parametrize("name", sorted(CASES))
def test_builder_output_is_pinned(name):
    assert _builder_digest(name) == PINNED[name]


def _sequence_coloring(s):
    f, seq = random_sequence_fixture(random.Random(s))
    return coloring_from_sequence(f, seq, k=1, arity=2)


def _chain_tail_coloring():
    f = chain(8)
    return coloring_from_sequence(f, sorted(f.nodes), k=0, arity=2)


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
    "chain-quadruples": lambda: coloring_from_sequence(
        chain(5), chain(5).nodes[:4], 1),
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
    "chain-quadruples":
        "a0d4218dc75d635dc18521fe883123cfb822168a945d18442df9882591d583fe",
}


def _coloring_digest(name):
    table = COLORING_CASES[name]().table
    return _digest(sorted([list(key), c] for key, c in table.items()))


@pytest.mark.parametrize("name", sorted(COLORING_CASES))
def test_coloring_table_is_pinned(name):
    assert _coloring_digest(name) == COLORING_PINNED[name]


def _type_sweep(f, pool, ks, prefixes=range(4)):
    g, r = rename(f, "y_")
    nodes = sorted(f.nodes)
    rows = []
    for k in ks:
        for p in prefixes:
            a_set, b_set = pool[:p], [r[x] for x in pool[:p]]
            codes = [tp_code(f, (x,), a_set, k).decode() for x in nodes]
            first = {}
            for x, c in zip(nodes, codes):
                first.setdefault(c, x)
            maps = []
            for i, x in enumerate(nodes):
                for y in (first[codes[i]], nodes[i - 1]):
                    m = equiv_k(f, (x,), g, (r[y],), k, a_set, b_set)
                    maps.append(None if m is None else sorted(m.items()))
            row = [k, p, codes, count_type_classes(f, a_set, k, 1), maps]
            if len(f.shape) == 1:
                row.append([questionnaire_code(f, x, a_set, k)
                            for x in nodes])
            rows.append(row)
    return rows


def _family_sweep(family):
    f = family_fragment(family, 16)
    return _type_sweep(f, family_parameter_pool(f, family), range(3))


def _sorted_pool(f):
    return sorted(x for x in f.nodes if f.sort.get(x) is not None)


def _tripod_sweep(s):
    f = random_tripod(random.Random(s))
    return _type_sweep(f, _sorted_pool(f), range(2))


def _closed_sweep(s):
    f = random_closed_fragment(random.Random(200 + s), 18)
    return _type_sweep(f, _sorted_pool(f), range(3))


def _constants_sweep(f):
    return _type_sweep(f, _sorted_pool(f), range(3))


def _family_code_sweep(family):
    f = family_fragment(family, 64)
    pool = family_parameter_pool(f, family)
    nodes = sorted(f.nodes)
    return [[k, p, [tp_code(f, (x,), pool[:p], k).decode() for x in nodes],
             count_type_classes(f, pool[:p], k, 1)]
            for k in range(3) for p in (1, 4, 8)]


TYPE_CASES = {
    **{"family-%s-16" % fam: (lambda fam=fam: _family_sweep(fam))
       for fam in ("chain", "binary")},
    **{"family-%s-64-codes" % fam: (lambda fam=fam: _family_code_sweep(fam))
       for fam in ("chain", "binary")},
    **{"tripod-%d" % s: (lambda s=s: _tripod_sweep(s)) for s in range(5)},
    **{"closed-%d" % s: (lambda s=s: _closed_sweep(s)) for s in range(4)},
    **{"theta-%s" % name: (lambda fix=fix: _constants_sweep(fix()))
       for name, fix in (("single-sort", theta_single_sort),
                         ("two-sort", theta_two_sort))},
}

TYPE_PINNED = {
    "closed-0":
        "0f399b620716c97ff6f31c8269f800cc55be294ba0ca7a9c24a40c9aa12e2ef0",
    "closed-1":
        "5ae9c1efb3d4e9185d314a1cd9db28d26058ec492677fa6b1a52f1236bce8beb",
    "closed-2":
        "fda81f84cb4415929faed3c3255a1c0a94c619ab8bad9ddc9fd43be0227f7a7a",
    "closed-3":
        "bf1a1adb78d150f424baa0fe37ec3bd8c14bdcbc14e79416cc73d608d33ac280",
    "family-binary-16":
        "83eaab87237b4cd0ddb86715c2c476a911a5a00f7202149c55abe28e8e3795fe",
    "family-binary-64-codes":
        "c4483129f475cef761b9a9334707d11d159fd0ddfa89eabf131dd56cd5d4a97b",
    "family-chain-16":
        "aff11b68aa39b3c910f17050d4b1f2ce708c23b036eba078e7ec526f00a2c88e",
    "family-chain-64-codes":
        "455868dcd663fa2b6d6326593cef5be0ef929e3d0e0dbfb73cfce775100b06e7",
    "theta-single-sort":
        "963c9fcfa51293c8e03b8dd3b2bce3c88220da0d2f3ae198c1962649a48f1a16",
    "theta-two-sort":
        "68c785221674107b3cd1538736578b38036602dbed974c0b67f764412c7d5958",
    "tripod-0":
        "2433ae7b82ea7fa5a0a6efb1a67939990fd594ba0abded4854556103b6a35b5c",
    "tripod-1":
        "341f42d271455b75aaffb7acb6482f92b2f226fe47ee4203475cf1bfac1255de",
    "tripod-2":
        "2751ebb9419df1a7e1626e36ce81908b19091916a9d36576116e16019bbb6665",
    "tripod-3":
        "3a9ccea2ef134860ae9ddd2ed3c4c0e6fbcccefc351d5c7efc3ebd744c255e38",
    "tripod-4":
        "2b23f56fdb6bc5e1aa6e20fbaa9f1779fcfd1c2c19d665666b934475b3bf3d5c",
}


def _type_digest(name):
    return _digest(TYPE_CASES[name]())


@pytest.mark.parametrize("name", sorted(TYPE_CASES))
def test_type_sweep_is_pinned(name):
    assert _type_digest(name) == TYPE_PINNED[name]


# the d tables of acceptance criterion 11, over six_chain_base's
# successor-of-limit positions
GUESS_TABLES = (None, {(0,): 1}, {(0,): 1, (1,): 1}, {(0, 1): 1},
                {(0, 1): 1, (1, 2): 1}, {(0,): 1, (0, 1): 1, (0, 2): 1})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TreedeskError as e:
        return [type(e).__name__, str(e)]


def _malformed_qnodes(p, rng, count):
    """Random sequences, mostly of successor-of-limit nodes and mostly
    with a d-type over their first entry, some of its equations left
    out."""
    nodes = sorted(p.tree.nodes)
    out = []
    for _ in range(count):
        pool = p.suc_lim() if rng.random() < 0.7 else nodes
        eta = rng.sample(pool, rng.randint(0, 3))
        if rng.random() < 0.5:
            eta.sort()
        gamma = None
        if rng.random() < 0.9:
            support = tuple(eta[:1]) if rng.random() < 0.8 else \
                tuple(rng.sample(nodes, rng.randint(0, 2)))
            keys = [key for m in range(len(support) + 1)
                    for key in itertools.combinations(support, m)]
            gamma = DType(support, {key: rng.randint(0, 1) for key in keys
                                    if rng.random() < 0.9})
        out.append(QNode(tuple(eta), gamma))
    return out


def _guess_sequence_sweep():
    rng = random.Random(18)
    out = []
    for table in GUESS_TABLES:
        p = six_chain_base(table)
        for alpha_max in range(4):
            for colors in (1, 2):
                q, ids = q_enumerate(p, alpha_max, colors)
                qs = [ids[nid] for nid in sorted(ids)]
                out.append([
                    ptriple_to_dict(q), [_qnode_key(a) for a in qs],
                    [[e_q(a, b), a.is_prefix_of(b)]
                     for a in qs for b in qs],
                    [_outcome(d_q, (a,)) for a in qs],
                    [validate_qnode(p, a) for a in qs]])
        out.append([_qnode_key(lift_element(p, t))
                    for t in sorted(p.tree.nodes)])
        out.append([validate_qnode(p, a)
                    for a in _malformed_qnodes(p, rng, 500)])
    out.append(fragment_to_dict(build_witness("inaccessible")[0]))
    return out


GUESS_SEQUENCE_PINNED = \
    "76fca9bd8327067c7e93f8da3dc80664d667f3587eb1bf2f0fbbdc82305faf5a"


def test_guess_sequence_layer_is_pinned():
    assert _digest(_guess_sequence_sweep()) == GUESS_SEQUENCE_PINNED


# {name} stands for a path that the fixture `cli_files` makes; the
# window of `indis classify` is that of `three_sort_step_fixture`.
CLI_CASES = {
    "validate": ["validate", "{chain}"],
    "complete": ["complete", "{raw_step}", "-o", "{out}"],
    "close": ["close", "{chain}", "--nodes", "n02", "--k", "0"],
    "types-code": ["types", "code", "{chain}", "--tuple", "n03", "--k", "1"],
    "types-count": ["types", "count", "{chain}", "--set", "n02", "--k", "0"],
    "qe-extend": ["qe", "extend", "{chain}", "{chain}", "--abar", "n03",
                  "--bbar", "n03", "--c", "n01", "--m1", "1", "-o", "{out}"],
    "indis-classify": ["indis", "classify", "{step}",
                       "--seq", "a_s0,a_s1,a_s2,a_s3"],
    "glue-star": ["glue", "star", "{glue}", "-o", "{out}"],
    "types-vc-degree": ["types", "vc-degree", "--family", "binary",
                        "--k", "0", "--csv", "{out}"],
    "qe-m2": ["qe", "m2", "--m1", "3", "--k", "1", "--shape", "chain:2"],
    "qe-table": ["qe", "table", "{chain}", "{step}",
                 "--phi", '["atom","<",["var",0],["var",1]]', "--nvars", "1"],
    "indis-check": ["indis", "check", "{step}", "--seq", "a_s0,a_s1,a_s2"],
    "indis-ni": ["indis", "ni", "{step}", "--seq", "a_s0,a_s1,a_s2,a_s3",
                 "--n", "2", "--k", "0"],
    "indis-hni": ["indis", "hni", "{step}", "--seq", "a_s0,a_s1,a_s2",
                  "--k", "0", "--r", "1"],
    "indis-h-iter": ["indis", "h-iter", "{step}",
                     "--seq", "a_s0,a_s1,a_s2,a_s3", "--max-iter", "1"],
    "indis-search": ["indis", "search", "{step}",
                     "--set", "a_s0,a_s1,a_s2,a_s3", "--L", "3"],
    "ramsey-homog": ["ramsey", "homog", "{coloring}", "--delta", "3"],
    "pspace-validate": ["pspace", "validate", "{ptriple}"],
    "pspace-hard": ["pspace", "hard", "{ptriple}", "--delta", "3"],
    "pspace-q-build": ["pspace", "q-build", "{ptriple}", "--alpha-max", "2",
                       "-o", "{out}"],
    "pspace-lift": ["pspace", "lift", "{ptriple}", "--t", "n003"],
    "demo": ["demo", "case1", "-o", "{out}"],
}

CLI_PINNED = {
    "close":
        "a09cf2ffdb8740f9a180b422d58fd0ad8a9b4488fdcd8d5cd30d519213e75525",
    "complete":
        "200d39814db0afc8389d029fa301c82480da0d0a60b2fdc4e4afbbaf21b3adca",
    "demo":
        "83ade29352a1e0dd68e6498d1af8d3ac02f77860a31c49403f5d3477f63a784d",
    "glue-star":
        "43f3cdb29660a672ca851e4a751e133206a07d569cc83782ad31152c3bcd79e0",
    "indis-check":
        "b50841c247b72e008cc1473bdc80a8726cd2d2d97075d79a8850131e48ef43c8",
    "indis-classify":
        "bf8ea7bcd7909825714f9dfd4c3db8260d90782a232f3c4ded40cceb6f43478b",
    "indis-h-iter":
        "c60df562b5e73e5283fdbdfc2b5ba22046bd6e50f81f23c29c9259970a118723",
    "indis-hni":
        "5b04389446c4fbd4e12dce0bb191b4a6e44eac34d2d52460dd984fb632aedefc",
    "indis-ni":
        "b1edc0be9bffa49bc41ad14287fb57b250f846b912294ad89fc8566930648ffc",
    "indis-search":
        "9bb8ff545ac13b068c31adb1c697ae61724dfc6130b3afe30780156321b5c311",
    "pspace-hard":
        "c26efef4b2f1ffdb1a43adbe534a24f7d6086e2391993593ccc60255c3b47e14",
    "pspace-lift":
        "4aab7affe3cae015656db4c56ef69e523a21a31c7961189af0bf125f7891c24b",
    "pspace-q-build":
        "f2f79dd88f2b54456d21d65c24a80a1181e68af2cd3c1f0038a768d153fcb084",
    "pspace-validate":
        "29ea8a2ad035055336803cdf83097adadc7bf41f2169292b3f35477083019ba1",
    "qe-extend":
        "71511d9e9e24ee7072be01ebd8f2413b9e0f0ef3e07c9c04990760230580b1f2",
    "qe-m2":
        "c39fd0adda8f6c8f506feb8c41af20f67fa2f9f8cc14cbb43b92c0f65ac0c64a",
    "qe-table":
        "c2157267b10f1c5ac4570f0fdfea7d967c8182747d32edaa8c4c82f00455d576",
    "ramsey-homog":
        "fd9e0ceb0780dd611ab9a42f6f3623001b533900942aaebe2c2b8c5253ea92b8",
    "types-code":
        "40c6d442607e39bc18a2bd70f30c59951c0a5e74bb88a83b3dba5fff4012726b",
    "types-count":
        "742a77d6c82f796603241c1bb39ba3252d469e4e0ed69d428f4a13f78eff6df3",
    "types-vc-degree":
        "8efb58728acf7aac75716337886d5a72ccf7b2ccd201f1dac6d8b8c6133a803b",
    "validate":
        "02bb2c9275cb6b6688f044f05aa9993f0c6638a500b5fe3256b25d7fff1e2642",
}


def _write_cli_files(d):
    """Write the files that CLI_CASES names into the directory d (a
    pathlib.Path) and return their paths by name."""
    levels = {"n%02d" % i: Ordinal.nat(i) for i in range(6)}
    names = sorted(levels)
    w = Ordinal.omega()

    def wing(pref):
        return from_standard_tree(
            {pref + "0": Ordinal(), pref + "l": w, pref + "s": w.plus(1)},
            {(pref + "0", pref + "l"), (pref + "0", pref + "s"),
             (pref + "l", pref + "s")})

    raw_step = three_sort_step_fixture()[0]
    frags = {
        "chain": from_standard_tree(levels, {(names[i], names[j])
                                             for i in range(6)
                                             for j in range(i + 1, 6)}),
        "raw_step": raw_step,
        "step": complete(raw_step),
        "base": wing("b"),
        "wing": wing("w"),
    }
    paths = {name: str(d / ("%s.json" % name)) for name in frags}
    for name, f in frags.items():
        save_fragment(f, paths[name])
    spec = {
        "s_prime": {"indices": ["r"], "root": "r", "parent": {},
                    "labels": {"r": "r"}},
        "base": "base.json",
        "boundary": [{"nu": "r", "eps": 0, "path": "wing.json"}],
        "connectors": [{"nu": "r", "eps": 0, "entries": [["bs", "w0"]]}],
    }
    paths["glue"] = str(d / "glue.json")
    with open(paths["glue"], "w") as fh:
        json.dump(spec, fh)
    paths["coloring"] = str(d / "coloring.json")
    save_coloring(Coloring(6, 3, {(0, 1): 1, (1, 2, 3): 2, (2, 4): 1}, 0),
                  paths["coloring"])
    paths["ptriple"] = str(d / "ptriple.json")
    save_ptriple(six_chain_base(), paths["ptriple"])
    return paths


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    return d, _write_cli_files(d)


def _cli_argv(d, paths, name):
    out = d / ("%s.out.json" % name)
    return out, [a.format(out=out, **paths) for a in CLI_CASES[name]]


def _report_digest(stdout, argv, out):
    """SHA-256 of a JSON report with `timing` dropped and the directory
    of the input files written as DIR, followed by the file written to
    `out`, if argv names it."""
    doc = json.loads(stdout.replace(str(out.parent), "DIR"))
    del doc["timing"]
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if str(out) in argv:
        text += out.read_text()
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_json_is_pinned(capsys, cli_files, name):
    out, argv = _cli_argv(*cli_files, name)
    rc = main(["--format", "json", *argv])
    stdout = capsys.readouterr().out
    assert rc == json.loads(stdout)["status"]
    assert _report_digest(stdout, argv, out) == CLI_PINNED[name]


# One case of each family, the cheapest: the 64-node chain sweep alone
# takes 2.5 s.
SECOND_SEED_CASES = {
    "builder": ("complete-random-0", "family-binary-16", "three-sort",
                "tripod-0", "complete-top-sort-only-0", "complete-forest",
                "witness-inaccessible", "control-6", "extend-0",
                "extend-m1-closed", "extend-m1-tripod",
                "validate-corrupted-0"),
    "coloring": ("sequence-0", "chain-tail", "closed-arity4-0"),
    "type": ("family-binary-16", "family-binary-64-codes", "tripod-4",
             "closed-0", "theta-two-sort"),
}


def _run_main(argv):
    """Exit code, stdout and stderr of the CLI on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _second_seed_probe():
    """The digest of each CLI case, of each SECOND_SEED_CASES case and
    of the guess-sequence sweep, and the exit code, violation lines and
    traceback flag of each wrong-input case."""
    digest = {"builder": _builder_digest, "coloring": _coloring_digest,
              "type": _type_digest}
    got = {group: {name: digest[group](name) for name in names}
           for group, names in SECOND_SEED_CASES.items()}
    got["guess"] = _digest(_guess_sequence_sweep())
    got["cli"], got["wrong"] = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        paths = _write_cli_files(d)
        for name in CLI_CASES:
            out, argv = _cli_argv(d, paths, name)
            rc, stdout, _ = _run_main(["--format", "json", *argv])
            got["cli"][name] = (
                _report_digest(stdout, argv, out)
                if stdout and rc == json.loads(stdout)["status"] else rc)
        (d / "wrong").mkdir()
        paths = write_wrong_input_files(d / "wrong")
        for case, (argv, _) in WRONG_INPUTS.items():
            rc, stdout, stderr = _run_main([a.format(**paths) for a in argv])
            got["wrong"][case] = [
                rc, [line for line in stdout.splitlines()
                     if line.startswith("violation: ")],
                "Traceback" in stdout + stderr]
    return got


def test_pins_hold_under_a_second_hash_seed():
    paths = [os.path.dirname(os.path.dirname(treedesk.__file__)),
             os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONHASHSEED="2",
               PYTHONPATH=os.pathsep.join(paths))
    script = ("import json, test_identity; "
              "print(json.dumps(test_identity._second_seed_probe()))")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    got = json.loads(run.stdout)
    pinned = {"builder": PINNED, "coloring": COLORING_PINNED,
              "type": TYPE_PINNED}
    for group, names in SECOND_SEED_CASES.items():
        assert got[group] == {name: pinned[group][name] for name in names}
    assert got["guess"] == GUESS_SEQUENCE_PINNED
    assert got["cli"] == CLI_PINNED
    assert got["wrong"].keys() == WRONG_INPUTS.keys()
    for case, (_, fault) in WRONG_INPUTS.items():
        rc, violations, traceback = got["wrong"][case]
        assert rc == 2 and not traceback, case
        assert len(violations) == 1 and fault in violations[0], case
