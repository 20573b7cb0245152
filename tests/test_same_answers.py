"""Same answers for `match --emit --format json` and `alpha --all`, hashed.

Each match group runs one spec, or a small grid, through `cli.run` with
every strategy variant; the alpha group runs `alpha --all --format json`
over every partition with r <= 7, n = 1..s+3 and q = 1..a_1+4.  Every
group hashes the argv, exit code, stdout and stderr of each call.  A change that means to alter no output leaves the digests as they
are; one that alters some regenerates those groups and says which calls
changed.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_same_answers.py
"""

import contextlib
import hashlib
import io

import pytest

from sigmahg.cli import run

from conftest import partitions

VARIANTS = {
    "auto": ["auto"],
    "diagonal": ["diagonal"],
    "rectangular": ["rectangular"],
    "rgood": ["rgood"],
    "greedy": ["greedy"],
}

GRID = [(n, q, parts) for r in range(1, 5) for parts in partitions(r)
        for n in range(1, 5) for q in range(1, 5)]

ALPHA_GRID = [(n, q, parts) for r in range(1, 8) for parts in partitions(r)
              for n in range(1, len(parts) + 4) for q in range(1, parts[0] + 5)]

# group -> (spec, text one of its calls must print): every label
# best_matching reports, an unproven r-good report, each regime error
ROUTES = {
    "diagonal": ((3, 9, (4, 3, 2)), '"strategy": "diagonal"'),
    "all-ones": ((16, 4, (1, 1, 1)), '"strategy": "all-ones"'),
    "rgood-1b": ((6, 4, (2, 1)), '"strategy": "rgood-1b"'),
    "rgood-2": ((4, 5, (2, 1)), '"strategy": "rgood-2"'),
    "rgood-3": ((7, 16, (1, 1, 1)), '"strategy": "rgood-3"'),
    "rgood-3-two-part": ((5, 16, (2, 1)), '"strategy": "rgood-3-two-part"'),
    "greedy": ((3, 1, (1, 1, 1)), '"strategy": "greedy"'),
    "contract+diagonal": ((1, 4, (3,)), '"strategy": "contract+diagonal"'),
    "contract+all-ones": ((9, 6, (2, 2)), '"strategy": "contract+all-ones"'),
    "contract+rgood-1b": ((2, 2, (2, 2)), '"strategy": "contract+rgood-1b"'),
    "contract+rgood-2": ((3, 2, (2, 2)), '"strategy": "contract+rgood-2"'),
    "contract+rgood-3": ((7, 32, (2, 2, 2)), '"strategy": "contract+rgood-3"'),
    "contract+rgood-3-two-part": ((5, 6, (2, 2)), '"strategy": "contract+rgood-3-two-part"'),
    "contract+greedy": ((3, 2, (2, 2, 2)), '"strategy": "contract+greedy"'),
    "unproven-regime": ((6, 13, (2, 2, 1)), '"unproven_regime": true'),
    "error-not-r-good": ((4, 5, (2, 2)), "is not r-good"),
    "error-one-part": ((3, 3, (3,)), "need at least two parts"),
    "error-no-edges": ((1, 3, (2, 1)), "has no edges"),
    "error-no-regime": ((4, 6, (2, 2, 1)), "no r-good regime applies"),
    # regime 3's gate holds, but its exchange blocks run short: regime 2 builds
    "error-corner-absorption": ((5, 7, (2, 1)), '"strategy": "rgood-2"'),
    "error-rectangular-height": ((30, 3, (2, 2)), "need q >= r*delta"),
}

DIGESTS = {
    "grid/auto": "4eaad4ea3d0933cedcb7fc1cdcdebb257e47aeb45612f8b1c1bf4efcfdd653ef",
    "grid/diagonal": "45af2f8a99a2c1090f75841fcac04082270bf6bd6bc9bbb97e1fa8a036b1f914",
    "grid/rectangular": "36f5f3e8e0c71bd87678c23d285fc7608bd5aba488fa73f1bd759e45cf116de0",
    "grid/rgood": "9b9b23dd699ba5bda08cf772643f06b5a0247cbe138a797281e8938e3b313130",
    "grid/greedy": "b26326582fe2fff3a800eab6d0a053c8ba40308f1a021d9a8198c63181beef6f",
    "diagonal": "8899f9c596b0ba7e13f2016f6f8ea47f9e0e27d63e76cb17f3dce2ef7510fa88",
    "all-ones": "c7934baf1e3fac877c698e15200afe370a3b1b91c0a107fa6c31cf83fb6e1e65",
    "rgood-1b": "8484e250805d1079dec573a23eec0428df78a9bac7d45919d2f8e7379b863ff7",
    "rgood-2": "5042c499ed331c691bed3ccb12c966b0a10f3f30fa2845c89624c6c82a83f69e",
    "rgood-3": "b73ded1eba26b8cd7de116a362b643b9c965b6e6a012deabe80fa3f78398ac11",
    "rgood-3-two-part": "19152d089de5ec75bbdf8563664842440f459c9da85c82f678aa4be6eb0f8bf6",
    "greedy": "62e09d750b34dc3a29bedc6a39ab1b34ad30f71992b1ca70dd500c1ff4d75d53",
    "contract+diagonal": "1ae9ac0a46b852fa68e63da98d6de2901bf70b0749fe9c76b9d407b7b56c990e",
    "contract+all-ones": "76bfafc401dcf906fa2fc274ac16c1eafe1fd5d51b663882d5be520289b377cd",
    "contract+rgood-1b": "034345c536a328e7ebd71157a44e0660cc225e4a9c46ae8cf6fd84a6ea69f205",
    "contract+rgood-2": "8c68020e4e69906453873173ad9977b933629ec821ab99819cec8fd7ae003f60",
    "contract+rgood-3": "d4e345af4d1709e8a0df8a2cb89bf860d8ce6f2cbeb1a9a40e7a81924ea43840",
    "contract+rgood-3-two-part": "be234f2e0840e0e7dbd28f135a07cb62998007e81feec60a46e5236a34ef4a25",
    "contract+greedy": "4f2cc2645dc3c281888192e6f3b49f5ca282998ad3d4044fdcc27b36df563f02",
    "unproven-regime": "739f83e3cc276102e59d0c287e7a50c43e12c914997b669f6a2eb5a23ec60239",
    "error-not-r-good": "3dbe4604a9abde81c9e3bf2fd89d95bcba7664821ec384a751d56ab701bacf55",
    "error-one-part": "f399324bc4ae0a24ded82f6600e11c4060b8066860957c7ac69470e5bdaa4e39",
    "error-no-edges": "cd6496b6914b2fa19a6d4005ed78f0b358bc088cebeb61a5aeaf27f17af4935e",
    "error-no-regime": "940f57e422de21eff865135d2e3c0e96a5bbe6767fd0b356c6e5ed29277dfdbb",
    "error-corner-absorption": "63659515b5cb4bd84ce96cb15da1d042eda33efa7be3d0a52158339eac546025",
    "error-rectangular-height": "acc963b309da5df5b5a1782581b6b090dd67f1eff44aeb1498b682b734febdb6",
    "alpha/all": "e99930e0b6fdd1f07c30043d0218792290f7bd4d64946ba3bf225a2570077e9b",
}


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def group_calls(group):
    """(argv, exit code, stdout, stderr) of every call in the group."""
    if group == "alpha/all":
        for n, q, parts in ALPHA_GRID:
            argv = ["alpha", "--all", "--n", str(n), "--q", str(q),
                    "--sigma", ",".join(map(str, parts)), "--format", "json"]
            yield (argv, *call(argv))
        return
    if group.startswith("grid/"):
        specs, variants = GRID, [VARIANTS[group[len("grid/"):]]]
    else:
        specs, variants = [ROUTES[group][0]], list(VARIANTS.values())
    for n, q, parts in specs:
        for variant in variants:
            argv = ["match", "--n", str(n), "--q", str(q), "--sigma", ",".join(map(str, parts)),
                    "--strategy", *variant, "--emit", "--format", "json"]
            yield (argv, *call(argv))


def digest(calls):
    h = hashlib.sha256()
    for argv, code, out, err in calls:
        h.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


GROUPS = [f"grid/{v}" for v in VARIANTS] + list(ROUTES) + ["alpha/all"]


@pytest.mark.parametrize("group", GROUPS)
def test_same_answers(group):
    calls = list(group_calls(group))
    if group in ROUTES:
        shown = ROUTES[group][1]
        assert any(shown in out or shown in err for _, _, out, err in calls), shown
    assert digest(calls) == DIGESTS[group]


if __name__ == "__main__":
    for group in GROUPS:
        print(f'    "{group}": "{digest(group_calls(group))}",')
