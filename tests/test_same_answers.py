"""Same answers for `match --emit --format json`, hashed per route group.

Each group runs one spec, or a small grid, through `cli.run` with every
strategy variant and hashes the argv, exit code, stdout and stderr of each
call.  The digests were made before `best_matching` routed on gcd(sigma)
and the r-good dispatcher became a chain of gates; a change that means to
alter no output leaves them as they are.  `all-ones` and
`error-corner-absorption` were regenerated when `rgood --permissive` began
to build regime 2 where regime 3 runs short of exchange blocks; each
differs from its earlier digest in that one call.  To print the digests of the
current code:

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
    "rgood-permissive": ["rgood", "--permissive"],
    "greedy": ["greedy"],
}

GRID = [(n, q, parts) for r in range(1, 5) for parts in partitions(r)
        for n in range(1, 5) for q in range(1, 5)]

# group -> (spec, text one of its calls must print): every label
# best_matching reports, an unproven permissive report, each regime error
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
    "unproven-permissive": ((4, 13, (2, 2, 1)), '"unproven_regime": true'),
    "error-not-r-good": ((4, 5, (2, 2)), "is not r-good"),
    "error-one-part": ((3, 3, (3,)), "need at least two parts"),
    "error-no-edges": ((1, 3, (2, 1)), "has no edges"),
    "error-no-regime": ((4, 6, (2, 2, 1)), "no r-good regime applies"),
    # --permissive raised "corner absorption needs ..." here until regime 3's
    # capacity shortfall fell through to regime 2
    "error-corner-absorption": ((5, 7, (2, 1)), '"strategy": "rgood-2"'),
    "error-rectangular-height": ((30, 3, (2, 2)), "need q >= r*delta"),
}

DIGESTS = {
    "grid/auto": "171317289a8a5294047624f7857c125ebe7822341810479f824f47a18be93ec6",
    "grid/diagonal": "45af2f8a99a2c1090f75841fcac04082270bf6bd6bc9bbb97e1fa8a036b1f914",
    "grid/rectangular": "36f5f3e8e0c71bd87678c23d285fc7608bd5aba488fa73f1bd759e45cf116de0",
    "grid/rgood": "471e84f81ae9377000d082e933c1b6b31d50b9e99d118ab45b5331bee4311031",
    "grid/rgood-permissive": "5229f21dfd935d5424aa977295a8f27a1d340af3ab261edc0be77f2a74fefd0e",
    "grid/greedy": "b26326582fe2fff3a800eab6d0a053c8ba40308f1a021d9a8198c63181beef6f",
    "diagonal": "2f4456be9c30c1e206bd253ec1ab0d4eb785ee54e2930bf9468e54e397759a72",
    "all-ones": "1fb47cd399e6c65d940229d07e51ca674c4a7b838d7b8fe9ecdbc3575866c61a",
    "rgood-1b": "1c166e539c418513895639aaadb0e6d1ff2dfa749812b503594c8d331139508f",
    "rgood-2": "6337586a86ee2b583bb62d35516c9e597ac3896ccb2061cf4c5d1e4fa86f3acf",
    "rgood-3": "05eda0dece282c1731d72c3fd87f86030c5ea3883942b6a27313cf67e2a0b449",
    "rgood-3-two-part": "06efba4e1f885c2fcc7fd0014d6c5c06965d0cd9c013553c1d92431474684b6e",
    "greedy": "2220c675f084723faad930e6c151a906085f0790519b623066797edbfd652c9e",
    "contract+diagonal": "c1e1ade7f33336a3c77323ed3e362f968651ca99c4616add6099d072f3fa2098",
    "contract+all-ones": "dd320791693bd98f227a1e79122eeabb55a5d07f55986a00d702e46c16bc7b66",
    "contract+rgood-1b": "59e79bc9e0c1271c59363b44a02a2da043d209b7c2329b1e35e6d1da6caaaae1",
    "contract+rgood-2": "59a631103b804719c0b259d6c5eff154c4aaa5017da73fb65807eeae5e5a8a47",
    "contract+rgood-3": "e513661a51008ff4977c1707a01f80e1c7b1ececf24507b2cd0a2fbb70ff36b3",
    "contract+rgood-3-two-part": "f14af6f17a72410946b2dac1142d7662316b4cdea11aa8501b5c385cc9e92b36",
    "contract+greedy": "ea70b4857c88b1f38ef3f4f8e502d4a6c3ad9bf54293b023d5e644edd5a1505a",
    "unproven-permissive": "22e839439b86f727a71f49511d0c54fd36f446fd24468ae506bfb4d930b770de",
    "error-not-r-good": "7f95958051db723d755a3ccdf5de62b633799897b0dc9d44addd6a0c3a2ab8b9",
    "error-one-part": "9ca1cd4e079b973ccfb44791131a5502568e8eb03bb7bfb392a19c621bcee210",
    "error-no-edges": "91c5e45543ad7af3fc65fbae70dd33f85ba91c2247460535ab444c0e034eb6d3",
    "error-no-regime": "faf403a092ac2e419ba8b9ec193adb3d3d4c7bee8281341b0cfdbeaa7a92229e",
    "error-corner-absorption": "89d72f487826c0b236098443b951aa3db8408faf24dea0b85ee00bec36808440",
    "error-rectangular-height": "e8593e84f3a0ee50490fee16c4caf2c0af15899907f729659433c082c4b2ff33",
}


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def group_calls(group):
    """(argv, exit code, stdout, stderr) of every call in the group."""
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


GROUPS = [f"grid/{v}" for v in VARIANTS] + list(ROUTES)


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
