"""Byte-level goldens of the CLI's JSON output on small grid points.

JSON output is deterministic, so any refactor of the operator layers
must leave these digests unchanged.  Each digest is the sha256 of the
full ``--format json`` stdout of one command; they cover dim, verify,
hecke, structconst and basis in both modes at (2, 3), (3, 3) and
(4, 2).  A changed digest is an output change and has to be declared as
one, never silently re-recorded.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from schuralg.cli import main

GOLDEN = [
    ("dim 2 3",
     "9bcdbbb003dc1c5dd05dbc7f762e2a3c9ebb46b20a4bd4b6dd550ee5cbd57ff9"),
    ("dim 3 3 --quantum",
     "328fac9e89cae6b5e67152018cf516310c244e8f5d5def9b53918190c802b4ed"),
    ("dim 4 2",
     "6208f62b66ef2ae0445a94d1d5370e4192a6fd81c983eb030dbd37a835542679"),
    ("verify 2 3 --suite all",
     "69382ee7363acab8ec5e659ff409a9dba9671b17828d164d48dfb4d8e84320b1"),
    ("verify 3 3 --suite all",
     "11c2c377db83ce8f35dfe61268c86a60178bc68178b0979876407c7966639eb1"),
    ("verify 3 3 --quantum --suite all",
     "048207db27fc3dfca62b5735fa2a7d139226b114a1e260b566c9ab722aca98d2"),
    ("verify 4 2 --quantum --suite all",
     "d936a63bfce3c07bc4a80a93554bd68a44a9e9e3c0677ec7377da390496a9655"),
    ("hecke 3 3",
     "f07b02e51fcb31468a299fe3d4e4592cf823c8d8bdbc9a95f5ccb0c7ce93f926"),
    ("hecke 3 3 --quantum",
     "fa6b0c2deb583763ede648863655aba7a5a8101235bddb3bbc9bda169465e516"),
    ("hecke 4 2 --quantum",
     "1f3aa1fbe6271820f81a5712a96fb9acb73ed770ba6a4cca8629f45a2f518ce4"),
    ("structconst 2 3 --left 1 --right 8",
     "8f2194774419b1ff7fd41adb42e3eec8387326a10d38849616238fa7e73e1713"),
    ("structconst 3 3 --left 5 --right 79",
     "f4c65bfeffd74412659317e87d3b3f36d11da1a14bfea272839b6633f4ba09c4"),
    ("structconst 3 3 --quantum --left 5 --right 79",
     "ee0c380c2ee586f4305b2f372dc1192e5239d3eae268aada73e3570f77e21c69"),
    ("structconst 4 2 --quantum --left 24 --right 7",
     "9c499dcfdff16178131032f37db151ad913fc7cadf95ea5a16d98af354412d79"),
    ("basis 3 3 --kind b1",
     "1aea09d27df0dbe1ada603dc5e731e60c6dc523886ecb0857d78f2566bf0e44a"),
    ("basis 2 3 --kind pbw",
     "5b51ac2682711fda990f85ef4d2d2da9af6cebd8bca65718082544486b69c6a8"),
    ("basis 4 2 --quantum --kind pbw",
     "b2279d83ba16867de408e1850a6be8d7b572b8f7deac73b2382853a838588c09"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_json_output_matches_golden_digest(command, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(command.split() + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
