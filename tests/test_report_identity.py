"""Golden report identity: suite reports must not change under refactoring.

Each digest is the SHA-256 of a suite's report JSON (``sort_keys=True``,
``elapsed_ms`` removed).  The configurations together exercise the
pairing engine under Kashiwara's form (serre-radical, xyz) and at the
specialized weight, and the integer Gram slices at numeric points, and the
plane suites cover the action, the invariant kernels and the star product.  A digest may only be
updated by a change that deliberately alters what a suite reports.
"""

import hashlib
import json

import pytest

from qsphere.cli import SuiteConfig, run_all, run_suite

GOLDEN = [
    ("factorization", 3, 2, "cfe88dd6456a04615af2d93d2dd4f3322a3d23a976321323810cf36ed4b5a790"),
    ("harish", 2, 3, "c29e128b306b7db7830431acd17420b4d67f98cd5f0fc4b002f363b7b994a2f5"),
    ("span", 2, 3, "78546d719b88c31204e075a5b07439cb229340e6f7760cab17f589f9d88b855e"),
    ("normalizer", 2, 3, "90396bcc1116088178fda97aecd4ecc79c96bfc54b55e3ce4e51b4fb738ef4ae"),
    ("irreducibility", 2, 3, "e4bb6e1c45a5fe9037edf921d4efa13fbcd885e3fc4a89d7ce9507bdd974d84d"),
    ("irreducibility", 3, None, "c73bef80042d0911bcdac17fed016766a1578aba85c31eb9346716354a60ecb8"),
    ("f-inverse", 2, 2, "ac202929e86398add3594d986fadfb1c0663e4988f86a5d992c269f9840c1680"),
    ("f-inverse", 3, 3, "19d31b3384f7c27e1d25a4a6316f8c1c628cbb8a49b413443d0381571d2ba455"),
    ("serre-radical", 2, None, "28dc63cc6eb8e881d092c942113022762c18e26f520d26aded93b2e0c7e65914"),
    ("xyz", 3, None, "12da95a70d5f21fa87a0f7b1df30e14a49ec09b11655868896d516b84e751a61"),
    ("module-algebra", 2, None, "75136dfeed37d4efefcfb9027cf424de81626e26af28356d1d29a75432e6bc14"),
    ("delta-inv", 2, None, "75ad582a8bc5dc9cc0d74ccd480ad6b8d21fca13556765ac644a2dad75b00599"),
    ("invariant-dims", 2, None, "135833cf99b9a6b7a62039a4caf8397782590835c0029699b0d5b27236affb8c"),
    ("star", 2, None, "048219878b61f221be238b499115b74db05b29b8a4200d5007f32fde330888d6"),
    ("star", 3, None, "63db581b61a7044ebc10d3a7e139d3611e13d1e445c7ba91e3e645cb72e35804"),
]

# `verify all --n 2` with every other flag unset: its ``params.runs`` fixes the
# params, rank and mode every suite resolves to by default
ALL_R2 = "6f2df1f6f1d13f87c8bad50f9a03cd752f37eedef2f2bcb296ea4cb561cdacce"


def _digest(report):
    blob = report.to_dict()
    blob.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def report_digest(name, n, max_deg):
    return _digest(run_suite(name, SuiteConfig(n=n, max_deg=max_deg)))


@pytest.mark.parametrize(
    "name,n,max_deg,digest", GOLDEN, ids=["%s-n%d" % (g[0], g[1]) for g in GOLDEN]
)
def test_report_is_unchanged(name, n, max_deg, digest):
    assert report_digest(name, n, max_deg) == digest


def test_all_report_is_unchanged():
    assert _digest(run_all(SuiteConfig(n=2))) == ALL_R2
