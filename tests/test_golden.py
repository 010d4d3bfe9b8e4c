"""Byte-level goldens of the CLI's JSON output on small grid points.

JSON output is deterministic, so any refactor of the operator layers
must leave these digests unchanged.  Each digest is the sha256 of the
full ``--format json`` stdout of one command; they cover dim, verify,
hecke, structconst and basis in both modes at (2, 3), (3, 3) and
(4, 2), the structural, specialization, reduction, idempotent and
relations suites at (3, 4) and (4, 3), the structural suite at (4, 4)
(the bench's structural-c command), the quantum specialization suite at
(4, 4), the corner at (4, 4) in both modes, (5, 4) and (5, 5), the
quantum corner at (5, 4) and quantum dim at (4, 4), which build the
quantum root vectors of n = 5 and n = 4 by their recursion, three
structure-constant pairs of B1 at (3, 5) in both modes (blocks of four
and five labels, as the bench's structconst-q command multiplies),
basis JSON for every kind at (3, 3), and the enumeration order of
larger bases: B1 at (5, 4), B2 and PLUS at (4, 4), PBW at (4, 3) and
BOREL_DOWN at (3, 5).  ``label_key`` shows only in text and CSV output,
so ``TEXT_CSV_GOLDEN`` adds the text and CSV output of ``basis`` for
every kind at (3, 2), the CSV output of B1 at (5, 4), and the CSV
output of structconst in both modes.  A changed digest is an output change and has to be
declared as one, never silently re-recorded.  ``dim`` and the structural
suite are also checked to read their bases grouped as they are
enumerated, with their digests unchanged, and ``dim``, ``hecke`` and
``structconst`` to form no operator product.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout

import pytest

import schuralg
from schuralg import bases, cli, hecke, rootvectors, tensormodel, verify
from schuralg.cli import main
from schuralg.tensormodel import build_model

GOLDEN = [
    ("dim 2 3",
     "9bcdbbb003dc1c5dd05dbc7f762e2a3c9ebb46b20a4bd4b6dd550ee5cbd57ff9"),
    ("dim 3 3 --quantum",
     "328fac9e89cae6b5e67152018cf516310c244e8f5d5def9b53918190c802b4ed"),
    ("dim 4 2",
     "6208f62b66ef2ae0445a94d1d5370e4192a6fd81c983eb030dbd37a835542679"),
    ("dim 4 4 --quantum",
     "f726c7d9d3f355825bf7969013dd64605a8d311339ae2983cc5cf52807dfd08f"),
    ("verify 2 3 --suite all",
     "69382ee7363acab8ec5e659ff409a9dba9671b17828d164d48dfb4d8e84320b1"),
    ("verify 3 3 --suite all",
     "11c2c377db83ce8f35dfe61268c86a60178bc68178b0979876407c7966639eb1"),
    ("verify 3 3 --quantum --suite all",
     "048207db27fc3dfca62b5735fa2a7d139226b114a1e260b566c9ab722aca98d2"),
    ("verify 4 2 --quantum --suite all",
     "d936a63bfce3c07bc4a80a93554bd68a44a9e9e3c0677ec7377da390496a9655"),
    ("verify 3 4 --quantum --suite structural",
     "79908ea63059acfade17f9387acc8c8b324a1d6f3d4fa256814eb1195c9caa94"),
    ("verify 4 3 --suite specialize",
     "80dd124f86753c64c43a2b80d1b3f3bd339bcd7068d63f1a5a27e04f49696417"),
    ("verify 3 4 --quantum --suite reduction",
     "d60e3589f6f64608eab908e78e1a2de179250f3e86021595aab54981b671dfbf"),
    ("verify 4 3 --suite reduction",
     "fbf2301e810d07996c65050468561d378211c179a56d52d2cd20b1a809f9c8a7"),
    ("verify 4 3 --suite idempotent",
     "2ff5d519747f2d9741f67c287de1e0803945d7a5483b7f2db4ee46b4120f8818"),
    ("verify 3 4 --quantum --suite idempotent",
     "dcf8d683e31b424b27ad5cfcef75d863d7dad9f8597dee217ad3000c083c6ed1"),
    ("verify 3 4 --quantum --suite relations",
     "2cd73b68d151ce18305fb76504c24ede6a78d63f960754aaa3620d836a31261a"),
    ("verify 4 4 --suite structural",
     "7631e070a1f9ee3200adba92496f8475b3d3f5559b241b7f8dbe48e13448dd59"),
    ("verify 4 4 --quantum --suite specialize",
     "16097bc4618e27d1615d28c999a24d0936a8d02b6b6c5d2c4f34f9943363856d"),
    ("hecke 3 3",
     "f07b02e51fcb31468a299fe3d4e4592cf823c8d8bdbc9a95f5ccb0c7ce93f926"),
    ("hecke 4 4",
     "eeabe2e5ab8bc1efd562b6e965164226b3aa78ef3a9ace7a096b09628d34af5d"),
    ("hecke 3 3 --quantum",
     "fa6b0c2deb583763ede648863655aba7a5a8101235bddb3bbc9bda169465e516"),
    ("hecke 4 2 --quantum",
     "1f3aa1fbe6271820f81a5712a96fb9acb73ed770ba6a4cca8629f45a2f518ce4"),
    ("hecke 4 4 --quantum",
     "2be76d0f2d367772d8925a92b5d708813698656aa032eb1be1a03391e45d6ebe"),
    ("hecke 5 4",
     "ae04983475953a55d8825375877b52f4354062878308c1eba5c3d4070967c97c"),
    ("hecke 5 5",
     "cb18e8d5c6c4fd5e23cdd9fcd962ab2f0da9f3856db5666c5104243886bc21b9"),
    ("hecke 5 4 --quantum",
     "366f9214f8da04f3281c8ff7049c6f7d973aab84dbc8e31ff3aec0cdfc582406"),
    ("structconst 2 3 --left 1 --right 8",
     "8f2194774419b1ff7fd41adb42e3eec8387326a10d38849616238fa7e73e1713"),
    ("structconst 3 3 --left 5 --right 79",
     "f4c65bfeffd74412659317e87d3b3f36d11da1a14bfea272839b6633f4ba09c4"),
    ("structconst 3 3 --quantum --left 5 --right 79",
     "ee0c380c2ee586f4305b2f372dc1192e5239d3eae268aada73e3570f77e21c69"),
    ("structconst 4 2 --quantum --left 24 --right 7",
     "9c499dcfdff16178131032f37db151ad913fc7cadf95ea5a16d98af354412d79"),
    ("structconst 3 5 --left 1031 --right 1219",
     "47b9ec47305d9e846e830694f6b0652ebb7ffe9fd196e1ab2a94baf8ed447a9e"),
    ("structconst 3 5 --quantum --left 1031 --right 1219",
     "27f56087ed8da0159c54205d6e85d92231d8d9efc61012b748cf94fc22d6a8f1"),
    ("structconst 3 5 --left 817 --right 1153",
     "ba187b12ec4ccdd768fad7f6e04c3ad5ffc5c123270353cdc8c8763eae97f33a"),
    ("structconst 3 5 --quantum --left 817 --right 1153",
     "8b6a5a6465f3ab950af4f12ed8c7c5a73e8f7deac5e0f36f22d1129c3685dbdd"),
    ("structconst 3 5 --left 632 --right 789",
     "76b6a32c4ce150b1bd9e267e31e4c4df1a62d7bed90ecb5af0c5a605154090d7"),
    ("structconst 3 5 --quantum --left 632 --right 789",
     "048f52ce48f557e26a3e48c67a1e75ffb2b8757e0563128677796900b8d58aed"),
    ("basis 3 3 --kind b1",
     "1aea09d27df0dbe1ada603dc5e731e60c6dc523886ecb0857d78f2566bf0e44a"),
    ("basis 2 3 --kind pbw",
     "5b51ac2682711fda990f85ef4d2d2da9af6cebd8bca65718082544486b69c6a8"),
    ("basis 4 2 --quantum --kind pbw",
     "b2279d83ba16867de408e1850a6be8d7b572b8f7deac73b2382853a838588c09"),
    ("basis 3 3 --kind b2",
     "29a0f61e0fc9225718b4eb0f12b1889c41a3d648c764c20089802a7d186f33b3"),
    ("basis 3 3 --kind plus",
     "9491120b6b8df8f446a63a179bacd6f3bf13b9db8023c7102cd5478fcc33e1f8"),
    ("basis 3 3 --kind minus",
     "b66f5e6feddb449d0a86d9bfe9221a9dceb16ef925bf43a080a736107e6f5cf0"),
    ("basis 3 3 --kind borel_up",
     "a97945330c71beb5f40e4c612e9b84b4efed656d4545ac3265a0d71dbb52176f"),
    ("basis 3 3 --kind borel_down",
     "ea90db702b4659552fcd28f5903efbc942e32a18a1a529bde380e1057ebb1d72"),
    ("basis 3 3 --kind zero",
     "319b96ab21097a4ca83b2c770b784bc64231722b56a7aaa3147b6386efbeecd5"),
    ("basis 3 3 --quantum --kind b2",
     "a52f153ba7a3bb83edd5046e8a01dbf85288d74aee05716397da24d72e6738c7"),
    ("basis 5 4 --kind b1",
     "9bdc782dd1840f1cc64324afd15813e0ddfd0966be2cb9886639536473ed3789"),
    ("basis 4 4 --kind b2",
     "a9e73a21d63a7e99d58c085095766089ea7882ad46758c98091e1033b5e0c307"),
    ("basis 4 3 --kind pbw",
     "2dc9095c95e60add8dd2d104cbe09fb57b1d45d4904ae008be391cb603f145bc"),
    ("basis 4 4 --kind plus",
     "64f69e8e2eb6ca7dbfe458cbd7df747fab7d25f64f3ba4f03a3ec8a53711430f"),
    ("basis 3 5 --kind borel_down",
     "88f39b8c4aab40569d70244fc804edb2186b6ce6faa0691503a5211db1d245d3"),
]


TEXT_CSV_GOLDEN = [
    ("basis 3 2 --kind b1 --format text",
     "8d858638299bc76894d4267914ff45e33220852fb797092e0586dc50b2abb474"),
    ("basis 3 2 --kind b1 --format csv",
     "10d3b2383ea2c5c66dfefdf756ac1d1774fbac2fe2fb48eae38de1ba39ccd3da"),
    ("basis 3 2 --kind b2 --format text",
     "0ba92459cfb7071575b9f9fc8d1bb0132f3ae9097dd79e51422ef5de91bd2f16"),
    ("basis 3 2 --kind b2 --format csv",
     "b89c4df8286d095b7597730c29654d0d29b05aa14274102e21e1c9bf4f9aa05b"),
    ("basis 3 2 --kind pbw --format text",
     "d32c9f19017d615a55778f7d9d5fa7463fed6eda52419618ed32491c3c656957"),
    ("basis 3 2 --kind pbw --format csv",
     "7ce4f77777b618ac8e269aa23a8bd393d6b559817070fbc5b37df94b42a5ad3c"),
    ("basis 3 2 --kind plus --format text",
     "da447b2725b60e3a48f910c47741686cd590919b52a1c404be90f790c857f866"),
    ("basis 3 2 --kind plus --format csv",
     "814e3a424d3b6e455863d99830ef710258b092ee8c129a8b621384e817ea10ff"),
    ("basis 3 2 --kind minus --format text",
     "197b82ac77c12d6c50ca5a700a7845256b28878e2148efa033aeea7d151caa19"),
    ("basis 3 2 --kind minus --format csv",
     "8fc7ea017d46ba2a1082eaad201a9dbc63e582788486c7e480512814ceb4ed22"),
    ("basis 3 2 --kind borel_up --format text",
     "1c10fc286e2672c8b49d6de2fa37ade45e5867b652e524d8998a7e7f0673f3d3"),
    ("basis 3 2 --kind borel_up --format csv",
     "65abb6254e08d3787c59cd1ccf556e10de6edb026cf4e76611024d4a819ea023"),
    ("basis 3 2 --kind borel_down --format text",
     "4f3f76be6b358d597e7bde61201ef7a3eb14c818988e55982abf70eb452d06ec"),
    ("basis 3 2 --kind borel_down --format csv",
     "1c2d08f4fae488e5299935b8b23d9824978ce6bea053e4a5868d09ccb68a41e1"),
    ("basis 3 2 --kind zero --format text",
     "4cee44fdac4f098013a22c6d064c9deddc4327f1c3de4b264ac1a01b2badda24"),
    ("basis 3 2 --kind zero --format csv",
     "fecde213b9d656f3f5658ee13980046066f3764c4524e7e6292bf318c466621f"),
    ("structconst 2 3 --left 1 --right 8 --format csv",
     "8e395b2c7df08915d908b259cd877edbc09dec6b7fc107662da42691741f7799"),
    ("structconst 3 3 --quantum --left 5 --right 79 --format csv",
     "8bae7de48c2e16a0514178d0dcc51909bbc2b5ed3d820a68de5fbe71e56ab13c"),
    ("basis 5 4 --kind b1 --format csv",
     "10bd9a5b3f3cbc435a1f4ad37b0df1523d29db08aece2798b106dc8dbdef51f8"),
]


def _digest(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_json_output_matches_golden_digest(command, digest):
    assert _digest(command.split() + ["--format", "json"]) == digest


@pytest.mark.parametrize(
    "command,digest", TEXT_CSV_GOLDEN, ids=[c for c, _ in TEXT_CSV_GOLDEN]
)
def test_text_and_csv_output_match_golden_digest(command, digest):
    assert _digest(command.split()) == digest


VECTOR_ONLY = [(c, d) for c, d in GOLDEN
               if c.split()[0] in ("dim", "structconst", "hecke", "verify")]


@pytest.fixture
def built_models(monkeypatch):
    """The models that the command under test builds, in order."""
    models = []

    def captured(*args, **kwargs):
        models.append(build_model(*args, **kwargs))
        return models[-1]

    for module in (schuralg, bases, cli, hecke, rootvectors, verify):
        if hasattr(module, "build_model"):
            monkeypatch.setattr(module, "build_model", captured)
    return models


@pytest.mark.parametrize("command,digest", VECTOR_ONLY, ids=[c for c, _ in VECTOR_ONLY])
def test_dim_and_structconst_build_no_label_operator(command, digest, monkeypatch,
                                                     built_models):
    # dim, structure constants, the corner and every verify suite, the
    # triangular check and the v = 1 comparison included, work on the
    # images of the ordered words, those of pinned labels built in
    # block_images walks: with label operators and one-label images out
    # of reach, the output is unchanged.  The images live in their
    # callers' memos: afterwards no model keeps a vector.
    def refuse(model, label):
        raise RuntimeError("eval_label or label_image was called")

    for module in (schuralg, bases, cli, hecke, rootvectors, verify):
        for name in ("eval_label", "label_image"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert _digest(command.split() + ["--format", "json"]) == digest
    assert built_models
    for model in built_models:
        assert not any(isinstance(value, dict) for value in model._op_cache.values())


OPERATOR_FREE = [(c, d) for c, d in GOLDEN if c.split()[0] in ("dim", "hecke", "structconst")]


@pytest.mark.parametrize("command,digest", OPERATOR_FREE, ids=[c for c, _ in OPERATOR_FREE])
def test_dim_hecke_and_structconst_form_no_operator_product(command, digest, monkeypatch,
                                                            built_models):
    # The root vectors are built on flat columns and every image is
    # applied flat, so these commands make no operator product, and no
    # quantum root vector's LaurentPoly columns are read back.  The
    # output is unchanged.
    calls = []
    matmul = tensormodel.SparseOperator.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(tensormodel.SparseOperator, "__matmul__", counted)
    assert _digest(command.split() + ["--format", "json"]) == digest
    assert not calls
    assert built_models
    built = [op for model in built_models if model.mode == "quantum"
             for key, op in model._op_cache.items()
             if key[0] == "root_vector" and key[1][1] > key[1][0] + 1]
    assert all(op._cols is None for op in built)


REGROUP = ("_label_block", "block_index", "enumerate_basis")


def _count_regroup_calls(monkeypatch):
    """Counts of the calls that find a label's block after enumerating
    it, by name, through every module that binds one of them."""
    calls = dict.fromkeys(REGROUP, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in (schuralg, bases, cli, hecke, rootvectors, verify):
        for name in REGROUP:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("command,digest", [
    ("dim 4 4", "3689f818e5c5b019cb77b1f9d20f6002ec93f89668c1788e6682d44fcf710322"),
    ("dim 3 4 --quantum", "c9148571f3da5542bec4d6e2319fedf5f45f964112854c50c8de7b6596a1a13d"),
    ("verify 4 4 --suite structural",
     "7631e070a1f9ee3200adba92496f8475b3d3f5559b241b7f8dbe48e13448dd59"),
])
def test_whole_bases_come_grouped_from_the_enumeration(command, digest, monkeypatch):
    # dim and the triangular check read B1 and B2 grouped as they are
    # enumerated: no flat list is enumerated and regrouped, and no
    # label's block is found again.  The output is unchanged.
    calls = _count_regroup_calls(monkeypatch)
    assert _digest(command.split() + ["--format", "json"]) == digest
    assert calls == dict.fromkeys(REGROUP, 0)


def test_structural_facts_come_grouped_from_the_enumeration(monkeypatch):
    calls = _count_regroup_calls(monkeypatch)
    assert verify.check_structural_facts(build_model(3, 3)).passed
    assert calls == dict.fromkeys(REGROUP, 0)
    # The counters see a path that still regroups: structconst hands
    # its flat B1 list to block_index.
    _digest("structconst 3 3 --left 5 --right 79 --format json".split())
    assert calls["enumerate_basis"] and calls["block_index"] and calls["_label_block"]


CORNER_GUARDED = [(c, d) for c, d in GOLDEN
                  if c in ("hecke 3 3", "hecke 4 4", "hecke 4 4 --quantum")]


@pytest.mark.parametrize("command,digest", CORNER_GUARDED, ids=[c for c, _ in CORNER_GUARDED])
def test_corner_ranks_vectors_without_operators(command, digest, monkeypatch):
    # The corner and its closure search hand their flat vectors to the
    # rank kernel as they are: RankAccumulator.add is never called, and
    # hecke builds no operator to rank a vector.  The output is unchanged.
    calls = {"add": 0, "operators": 0}
    real_add, real_init = bases.RankAccumulator.add, tensormodel.SparseOperator.__init__

    def add(self, op):
        calls["add"] += 1
        return real_add(self, op)

    def init(self, cols=None):
        calls["operators"] += sys._getframe(1).f_globals["__name__"] == hecke.__name__
        real_init(self, cols)

    monkeypatch.setattr(bases.RankAccumulator, "add", add)
    monkeypatch.setattr(tensormodel.SparseOperator, "__init__", init)
    assert _digest(command.split() + ["--format", "json"]) == digest
    assert calls == {"add": 0, "operators": 0}
