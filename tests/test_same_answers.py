"""Same answers for `match --emit --format json` and `alpha --all`, hashed.

Each match group runs one spec, or a small grid, through `cli.run` with
every strategy variant; the alpha group runs `alpha --all --format json`
over every partition with r <= 7, n = 1..s+3 and q = 1..a_1+4.  Every
group hashes the argv, exit code, stdout and stderr of each call.  The
`grid/classes` group runs the constructions in process over the grid and
the route specs and hashes everything but the rows: strategy, nu, unmatched
count, certificates, `proven` and each edge's classes, or the error text.
It pins the layout-free answer, so a change that only moves rows leaves it
as it is.  A change that means to alter no output leaves the digests as
they are; one that alters some regenerates those groups and says which
calls changed.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_same_answers.py
"""

import contextlib
import hashlib
import io

import pytest

from sigmahg import matching
from sigmahg.cli import run
from sigmahg.core import SigmaHypergraphError, make_spec

from conftest import partitions

VARIANTS = {name: [name] for name in matching.STRATEGIES}

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
    "grid/auto": "1fd713f6074b1f7ddf3515f81744492a6833d8e37d4b5af69d89e5763ec564db",
    "grid/diagonal": "1c7567ff204b439e88ec501a4f5e3033a5efda735b9f4e551f666fc9b00fc411",
    "grid/rectangular": "36f5f3e8e0c71bd87678c23d285fc7608bd5aba488fa73f1bd759e45cf116de0",
    "grid/rgood": "c11a06ab9951c8db88f52f8ff649434207c2ca52e04609a3ce69f124ac697fef",
    "grid/greedy": "b26326582fe2fff3a800eab6d0a053c8ba40308f1a021d9a8198c63181beef6f",
    "grid/classes": "e71445aee73c7b2b884a91e05364e4964643cd46c0f530e3a7d5ca5188f20bbf",
    "diagonal": "95f64b2ba53d38519f9001d7743690b248c5e9f8e250807eeb3b8e6e93c52f7f",
    "all-ones": "4b5e7bb29c860acf8192ef618b8fc37c9340c435eeabcd496c9ea32b9ec8a5c3",
    "rgood-1b": "8484e250805d1079dec573a23eec0428df78a9bac7d45919d2f8e7379b863ff7",
    "rgood-2": "7147783c82151b0868a697da553be8ba4289ec9c6cb6dfe30ffb36667ee9fcdb",
    "rgood-3": "8b81407f6fe98e07656b9cd50aec3821fcab62113aba15906c6437c2827efb1f",
    "rgood-3-two-part": "b8dc462fdd97193e1b31fdf4930a45496eb7f58bc011aa02d71f5ced00d35466",
    "greedy": "62e09d750b34dc3a29bedc6a39ab1b34ad30f71992b1ca70dd500c1ff4d75d53",
    "contract+diagonal": "369922bdb0fe5a90db33ea346cbe3b697ab7e664ca8d6262c2c7525d4695df74",
    "contract+all-ones": "2ae5dcf95046089d4a607798e1779ba2b91cf6534a4e251211b2c891543b86f4",
    "contract+rgood-1b": "034345c536a328e7ebd71157a44e0660cc225e4a9c46ae8cf6fd84a6ea69f205",
    "contract+rgood-2": "8c68020e4e69906453873173ad9977b933629ec821ab99819cec8fd7ae003f60",
    "contract+rgood-3": "65b5d2f3fcba247d3b19dc23b9306e33125a7642a843455a9dfc01f6af521376",
    "contract+rgood-3-two-part": "6dfcdf0af2be08f9c3ea75bbaad2d4400f126a596ef77f49ed57c06ed074241b",
    "contract+greedy": "4f2cc2645dc3c281888192e6f3b49f5ca282998ad3d4044fdcc27b36df563f02",
    "unproven-regime": "27cc4ab875301b0151028f890c8e30fd6160a0b9208fe94aa3db6ef5a35ffd3d",
    "error-not-r-good": "ea29f3f3eb796ab0a3d9b9712e2977bb5ceaf91bb61d8e3a58f0a482c493a707",
    "error-one-part": "f399324bc4ae0a24ded82f6600e11c4060b8066860957c7ac69470e5bdaa4e39",
    "error-no-edges": "cd6496b6914b2fa19a6d4005ed78f0b358bc088cebeb61a5aeaf27f17af4935e",
    "error-no-regime": "940f57e422de21eff865135d2e3c0e96a5bbe6767fd0b356c6e5ed29277dfdbb",
    "error-corner-absorption": "33a94dd3d74c6979e24750a370c08146faeb072b47d02b194f0c844ea5f12c9b",
    "error-rectangular-height": "e3e74d86378d7a6dea4c3910d162dfae7a2ac4d47872a61c672ef2ca319e21d6",
    "alpha/all": "e99930e0b6fdd1f07c30043d0218792290f7bd4d64946ba3bf225a2570077e9b",
}


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# the labels are hashed into the digests
BUILDS = {
    "best": matching.STRATEGIES["auto"],
    "rgood": matching.STRATEGIES["rgood"],
    "rectangular": matching.STRATEGIES["rectangular"],
    "greedy": matching.STRATEGIES["greedy"],
}


def layout_free(name, spec):
    """Everything a build reports except rows, or its error text."""
    try:
        rep = BUILDS[name](spec)
    except SigmaHypergraphError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((rep.strategy, rep.nu, rep.unmatched_count, rep.certificates, rep.proven,
                 rep.matching.classes))


def group_calls(group):
    """(argv, exit code, stdout, stderr) of every call in the group."""
    if group == "grid/classes":
        for n, q, parts in GRID + [spec for spec, _ in ROUTES.values()]:
            for name in BUILDS:
                yield ([name, str(n), str(q), ",".join(map(str, parts))], 0,
                       layout_free(name, make_spec(n, q, parts)), "")
        return
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


GROUPS = [f"grid/{v}" for v in VARIANTS] + ["grid/classes"] + list(ROUTES) + ["alpha/all"]


def test_every_digest_has_its_group():
    # the grid groups follow matching.STRATEGIES, so a strategy dropped from
    # the table would otherwise drop its digest unnoticed
    assert sorted(GROUPS) == sorted(DIGESTS)


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
