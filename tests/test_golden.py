"""Pinned CLI output: the ``scan``, ``bounds`` and ``eval`` JSON must not change by a byte.

The bounds payloads below were produced by the release before the check
table was introduced, the eval digests by the release before the kind
table, and the scan digests by the first release whose scan lanes draw one
block of variates each (Python 3.11.7, numpy 2.4.6); any change to the
check order, the arithmetic of a kernel, the summation or the scan's draw
protocol shows up here.

Byte identity holds per numpy version and per SIMD dispatch level: numpy's
AVX-512 and AVX2 loops round some powers and logarithms differently, which
moves the scan's worst ratios for some seeds.  So the scan and eval digests
are pinned once per x86 dispatch level, picked from numpy's detected CPU
features; the AVX2 sets were captured with ``NPY_DISABLE_CPU_FEATURES="X86_V4
AVX512_ICL AVX512_SPR"``.  A host with no pinned set skips the digests.
"""

import hashlib
import itertools
import json

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import phientropy as pe
import phientropy.cli as cli
from phientropy.bounds import BOUND_IDS, CHECKS, run_bound_checks

SCAN_SHA256 = {
    "X86_V4": {
        "1": "d888faf25bef2ab73c49f0a073152afe8d5012185e7dee57e658c1e99b64a4de",
        "2": "4045395784bcb87238ecf10df8351e1073de815825f1f6b0ba78ad49f05955d5",
        "3": "3c434af8d9845fa537ea028dcf50dae786771db56cbe906f7933cc621bb3e5cb",
        "271828": "e92b22d055b30a83b4732e84a83c3788f6f48f5d02da4314503b3afe01100b73",
    },
    "X86_V3": {
        "1": "d888faf25bef2ab73c49f0a073152afe8d5012185e7dee57e658c1e99b64a4de",
        "2": "4045395784bcb87238ecf10df8351e1073de815825f1f6b0ba78ad49f05955d5",
        "3": "a9dff8b8e79ba63885ea659bf65f04bc0b1819e3eae5546a75a2bbb714094c4d",
        "271828": "9eea43fe391ab90648efb340f07be71bd661e11b8a4126225299079bbf6abd47",
    },
}
SCAN_SEEDS = ("1", "2", "3", "271828")


def _dispatch() -> str:
    """The highest x86 level numpy dispatches to here, or the enabled features."""
    for level in ("X86_V4", "X86_V3"):
        if __cpu_features__.get(level):
            return level
    return "features " + " ".join(sorted(k for k, on in __cpu_features__.items() if on))


P = [0.5, 0.3, 0.2]
Q = [0.45, 0.35, 0.2]
R = [0.4, 0.35, 0.25]

# (family spec, p, q, r, extra argv, expected stdout without the newline)
BOUNDS_CASES = {
    # tv = 0: lb, cont2, improved and the segment are listed as skipped
    "identical": (
        '{"kind":"shannon"}', P, P, R, ["--epsilon", "0.5"],
        '{"all_hold":true,"family":{"kind":"shannon"},"reports":['
        '{"bound_id":"cont1","holds":true,"inputs_digest":"933b414ae9988be4","lhs":0.0,"ratio":null,"rhs":0.0,"tol":1e-10},'
        '{"bound_id":"lesche4","holds":true,"inputs_digest":"5f37010bbf1d8583","lhs":0.0,"ratio":null,"rhs":0.0,"tol":1e-10},'
        '{"bound_id":"fannes","holds":true,"inputs_digest":"70719ee84477c089","lhs":0.0,"ratio":null,"rhs":0.0,"tol":1e-10},'
        '{"bound_id":"relent_I","holds":true,"inputs_digest":"cc29f2997cf54f90","lhs":0.0,"ratio":null,"rhs":0.0,"tol":1e-10},'
        '{"bound_id":"relent_D","holds":true,"inputs_digest":"6e0367f01f6af12f","lhs":0.0,"ratio":null,"rhs":0.0,"tol":1e-10}],'
        '"skipped":["lb","cont2","improved","condition1_segment"]}',
    ),
    # every bound of the shannon family evaluated
    "shannon": (
        '{"kind":"shannon"}', P, Q, R,
        ["--epsilon", "0.5", "--mix-lambda", "0.6", "--mix-mu", "0.55"],
        '{"all_hold":true,"family":{"kind":"shannon"},"reports":['
        '{"bound_id":"cont1","holds":true,"inputs_digest":"a9139a1268204179","lhs":0.019000775294780947,"ratio":0.04755267368772126,"rhs":0.399573227355399,"tol":1.3995732273553993e-10},'
        '{"bound_id":"lb","holds":true,"inputs_digest":"5fd8a8f9d1932541","lhs":-0.3068528194400547,"ratio":-0.4426950408889634,"rhs":0.6931471805599454,"tol":1.6931471805599455e-10},'
        '{"bound_id":"cont2","holds":true,"inputs_digest":"03f0b48cfabad9a1","lhs":0.019000775294780947,"ratio":0.04317183177002873,"rhs":0.44011973816621547,"tol":1.4401197381662155e-10},'
        '{"bound_id":"improved","holds":true,"inputs_digest":"941b6594ef2d53a7","lhs":0.019000775294780947,"ratio":0.03397993892492382,"rhs":0.5591762638762172,"tol":1.5591762638762172e-10},'
        '{"bound_id":"lesche4","holds":true,"inputs_digest":"5e56ccbca58529e9","lhs":0.019000775294780947,"ratio":0.04317183177002872,"rhs":0.4401197381662155,"tol":1.4401197381662155e-10},'
        '{"bound_id":"fannes","holds":true,"inputs_digest":"75ec81a0b117d1f2","lhs":0.019000775294780947,"ratio":0.05586495919709113,"rhs":0.3401197381662155,"tol":1.3401197381662155e-10},'
        '{"bound_id":"relent_I","holds":true,"inputs_digest":"fd8416e6f52cdea2","lhs":0.012324205663554827,"ratio":0.024753421769529455,"rhs":0.49787887017404064,"tol":1.4978788701740407e-10},'
        '{"bound_id":"relent_D","holds":true,"inputs_digest":"dbd315bc0cddbe3b","lhs":0.012324205663554806,"ratio":0.024753421769529414,"rhs":0.49787887017404064,"tol":1.4978788701740407e-10},'
        '{"bound_id":"condition1_segment","holds":true,"inputs_digest":"1ccab967ad84a177","lhs":0.0009974007287074649,"ratio":0.0028778901701705956,"rhs":0.3465735902799727,"tol":1.3465735902799728e-10}],'
        '"skipped":[]}',
    ),
    # tv = 2: improved, relent_I (r vanishes where p and q differ, and
    # tsallis(0.5)'s ln_sup is infinite) and the segment outside its radius
    # are skipped; relent_D reads the finite ln_phi(0+) and is reported
    "disjoint": (
        '{"kind":"tsallis","kappa":0.5}', [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], ["--epsilon", "0.1"],
        '{"all_hold":true,"family":{"kappa":0.5,"kind":"tsallis"},"reports":['
        '{"bound_id":"cont1","holds":true,"inputs_digest":"f0cb3537d2b68417","lhs":0.0,"ratio":0.0,"rhs":2.0,"tol":3e-10},'
        '{"bound_id":"lb","holds":true,"inputs_digest":"26ffe0c9af434287","lhs":-0.12132034355964272,"ratio":-0.2071067811865478,"rhs":0.5857864376269049,"tol":1.585786437626905e-10},'
        '{"bound_id":"cont2","holds":true,"inputs_digest":"ee2cff64617f9b01","lhs":0.0,"ratio":0.0,"rhs":2.0,"tol":3e-10},'
        '{"bound_id":"lesche3","holds":true,"inputs_digest":"38b0fc8a20f5c7e4","lhs":0.0,"ratio":0.0,"rhs":1.9999999999999991,"tol":2.9999999999999995e-10},'
        '{"bound_id":"relent_D","holds":true,"inputs_digest":"d9b751d013a5c789","lhs":3.0,"ratio":0.6,"rhs":5.0,"tol":6e-10}],'
        '"skipped":["improved","relent_I","condition1_segment"]}',
    ),
}


# ``eval`` on every built-in kind (the scan grid plus a second
# piecewise-linear base, whose exp takes the bisection path) and every --fn;
# one digest per family over the five commands' stdout, in --fn order.
EVAL_SPECS = (
    '{"kind":"shannon"}',
    '{"kind":"tsallis","kappa":0.1}',
    '{"kind":"tsallis","kappa":-0.1}',
    '{"kind":"tsallis","kappa":0.5}',
    '{"kind":"tsallis","kappa":-0.5}',
    '{"kind":"tsallis","kappa":0.9}',
    '{"kind":"tsallis","kappa":-0.9}',
    '{"kind":"kaniadakis","kappa":0.5}',
    '{"kind":"kaniadakis","kappa":-0.5}',
    '{"kind":"kappa_maxwell","kappa":0.5}',
    '{"kind":"kappa_maxwell","kappa":2.0}',
    '{"kind":"sqrt_log"}',
    '{"kind":"piecewise_linear","base":2.0}',
    '{"kind":"piecewise_linear","base":1.1}',
)
EVAL_XS = (1e-12, 0.3, 0.7, 1.5, 3.0, 1e4)
EXP_XS = (-5.0, -0.7, 0.0, 0.4, 2.5, 30.0)
EVAL_SHA256 = {
    "X86_V4": {
        '{"kind":"shannon"}': "1cdf97ffeb1e0bdf90c6dce607d0db4c4880ad33ff7d98398e010b74df5a7aeb",
        '{"kind":"tsallis","kappa":0.1}': "97969673489cd5c2695c336fac6008eaad70d9d6023a56cb82cd055fa8d9d205",
        '{"kind":"tsallis","kappa":-0.1}': "eaa43c1f23fac25bfc4a7512b90ea1c7c4abbfd668acf2ebcec36de3e9190960",
        '{"kind":"tsallis","kappa":0.5}': "2c17f5b68004d00297f692f7a22117da6406f417ffd7b3e163c3944eec49fffd",
        '{"kind":"tsallis","kappa":-0.5}': "40530103454fc1466e384c1ec80dacf1a2205c03cb4e41ed6c2cc934153e3f48",
        '{"kind":"tsallis","kappa":0.9}': "16384b8d7754d5377bb7c5907219b4370f8d96fb7603cac241307fddf1bab27f",
        '{"kind":"tsallis","kappa":-0.9}': "c2f9d55fa66b14dbaac793ebff579cc6a76e9dad140858e2f5b501a3719a2200",
        '{"kind":"kaniadakis","kappa":0.5}': "df00d7bc6c21c9f8c00a382f40fbc0204eb3d232f3dd04f5725acd3a2f63a5e3",
        '{"kind":"kaniadakis","kappa":-0.5}': "99792faf610b14a3f674c86524465486ae299776eceaf1b24b299f4a4fa309be",
        '{"kind":"kappa_maxwell","kappa":0.5}': "7a7b4dc173eeca8a2069f35c4035bd215f8c07a5a6fafaf4f5c08269bc614939",
        '{"kind":"kappa_maxwell","kappa":2.0}': "ab42876f7002fada51d0e267940ec690203c7349be9fe43ab2849d0651a4b88c",
        '{"kind":"sqrt_log"}': "e62b775b8f17a2a55d4b9ba4c907d2621ce0d2b0704d9e852aeef5c9c4cca1da",
        '{"kind":"piecewise_linear","base":2.0}': "3ab38960f41cf0d28a83f6da365e8518f5a0a89ec52e8df5118f6f6adac2af94",
        '{"kind":"piecewise_linear","base":1.1}': "29fadbb6d596278e7f632246d4de1f3d16eda639702be43479ec7aad050787bc",
    },
    "X86_V3": {
        '{"kind":"shannon"}': "1cdf97ffeb1e0bdf90c6dce607d0db4c4880ad33ff7d98398e010b74df5a7aeb",
        '{"kind":"tsallis","kappa":0.1}': "9faf57284afe1441a4351b3981ad676d328732c1059a86fde8426b9db20faa0c",
        '{"kind":"tsallis","kappa":-0.1}': "a15b3bf615c89f7e0e3b3380763697c5ec5e8cc713f08a0f098f2e39ec8d9b8c",
        '{"kind":"tsallis","kappa":0.5}': "1f7ceddd1a82625c8aa5dd25d1de2a4fb15f4c85a06a6c3499120d222f642363",
        '{"kind":"tsallis","kappa":-0.5}': "71cb3ef0a0bde100423c9a139eb30ebfea0cf1836f1183233d5f9ede7aa236cb",
        '{"kind":"tsallis","kappa":0.9}': "16384b8d7754d5377bb7c5907219b4370f8d96fb7603cac241307fddf1bab27f",
        '{"kind":"tsallis","kappa":-0.9}': "c2f9d55fa66b14dbaac793ebff579cc6a76e9dad140858e2f5b501a3719a2200",
        '{"kind":"kaniadakis","kappa":0.5}': "b607b60cc76a60b890fe6f46a7e13b2aa2ca08f59af586230d204e9a95b48767",
        '{"kind":"kaniadakis","kappa":-0.5}': "a3aafbfaec435dcaae7d8420678638b8a61849520f802b5a020ba7459a121882",
        '{"kind":"kappa_maxwell","kappa":0.5}': "811c07bab6b49d7d4f19eb379686e9f0fd29b5b472f0f79c9c5de4302a2eed4e",
        '{"kind":"kappa_maxwell","kappa":2.0}': "8c4778f712d185d798b9bb9ae47e788dfc385cb42adae0a31aa3c9e272b2481e",
        '{"kind":"sqrt_log"}': "e62b775b8f17a2a55d4b9ba4c907d2621ce0d2b0704d9e852aeef5c9c4cca1da",
        '{"kind":"piecewise_linear","base":2.0}': "3ab38960f41cf0d28a83f6da365e8518f5a0a89ec52e8df5118f6f6adac2af94",
        '{"kind":"piecewise_linear","base":1.1}': "99a07b971d43000df64db3781b521e97835dda48cf56788cfd3eac991cbcd8da",
    },
}


def _stdout(capsys, argv) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("seed", SCAN_SEEDS)
def test_scan_bytes(capsys, seed):
    pinned = SCAN_SHA256.get(_dispatch())
    if pinned is None:
        pytest.skip(f"no scan digests pinned for numpy SIMD dispatch {_dispatch()}")
    code, out = _stdout(capsys, ["scan", "--trials", "1000", "--seed", seed])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned[seed]


# Scans whose trial budget ends inside a hill-climb restart or inside a run
# of one mode, and scans of one family, one dim or one mode, and a scan
# whose hill-climb blocks have 104 slots.  Captured with the scan digests
# above (Python 3.11.7, numpy 2.4.6), by running ``phientropy scan <argv>``
# and taking the SHA-256 of its stdout, at default dispatch and with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" for the X86_V3 set.
BUDGET_SCANS = {
    'trials=1 seed=7': ['--trials', '1', '--seed', '7'],
    'trials=52 seed=7': ['--trials', '52', '--seed', '7'],
    'trials=157 seed=7': ['--trials', '157', '--seed', '7'],
    'trials=200 seed=7': ['--trials', '200', '--seed', '7'],
    'trials=1001 seed=7': ['--trials', '1001', '--seed', '7'],
    'trials=5000 seed=7': ['--trials', '5000', '--seed', '7'],
    'trials=1 seed=20040': ['--trials', '1', '--seed', '20040'],
    'trials=52 seed=20040': ['--trials', '52', '--seed', '20040'],
    'trials=157 seed=20040': ['--trials', '157', '--seed', '20040'],
    'trials=200 seed=20040': ['--trials', '200', '--seed', '20040'],
    'trials=1001 seed=20040': ['--trials', '1001', '--seed', '20040'],
    'trials=5000 seed=20040': ['--trials', '5000', '--seed', '20040'],
    'one family': ['--trials', '1500', '--seed', '11', '--families', '[{"kind":"tsallis","kappa":0.5}]'],
    'dims 64': ['--trials', '1500', '--seed', '12', '--dims', '64'],
    'hillclimb only': ['--trials', '2500', '--seed', '13', '--modes', 'hillclimb'],
    'sparse only': ['--trials', '300', '--seed', '14', '--modes', 'sparse'],
    'hillclimb first': ['--trials', '900', '--seed', '15', '--modes', 'hillclimb,neighbor', '--dims', '4,16', '--families', '[{"kind":"shannon"},{"kind":"kaniadakis","kappa":0.5},{"kind":"piecewise_linear","base":2.0}]'],
    'hillclimb 104 slots': ['--dims', '2,3,4,5,8,16,32,64', '--modes', 'hillclimb', '--trials', '10000', '--seed', '7'],
}
BUDGET_SCAN_SHA256 = {
    "X86_V4": {
        'trials=1 seed=7': "a675807b27bffadc58ef165f58e6ef1794be5a37816a844d23cbe279040619e7",
        'trials=52 seed=7': "a95bb00b14b13f67519ebf2cdadbc152e135741b9fc387b8bf76eacb58c479c5",
        'trials=157 seed=7': "1749048cceedd2058ee59cc836bf9a8e1986ff7fdc160728c05a8ea542b1bf0c",
        'trials=200 seed=7': "10ef5a216e93794f53914222625e6fd736d358e65678804c2da66d62c776a85e",
        'trials=1001 seed=7': "fad3f5071a2c8a004ec94b6d0144f9277adccbbe2b46ce1a79d679c05593a8d2",
        'trials=5000 seed=7': "92076667f2c75b05021bf8446d578a91d83936fe2cd76b0de01047edd3e9552f",
        'trials=1 seed=20040': "d153bd42e4fcffa351fde15d9168e5e4d1f7445924ad11ab2c19498ff7ab492f",
        'trials=52 seed=20040': "a3967053e6bb1f50c81ba3705aabda7dd2c2e20a2c3deb9f656a9b6e649627a0",
        'trials=157 seed=20040': "f08e55b76133c94ec03cabb06d1eb6d6955f65c3c770406e9d173c6b6012fe1e",
        'trials=200 seed=20040': "e5b203dc540600ab91293e1c71e24584bb22a69d6e0778c5ed44796a69037e3d",
        'trials=1001 seed=20040': "280246023f0e5d0843170c169a8d65e3262029293be82a5c42d2d1c1bde17401",
        'trials=5000 seed=20040': "5f5e8960c4db888249cfa5558171f290a13c7a5f46de7f9faddf52a888b0bb81",
        'one family': "9cfe44eed85b0f37346b02e0ae26a36295eab09955cdf7abe506a26cbeb9acf8",
        'dims 64': "7be9e0f1eb5df4aeb9a6e4e0a8760495cd95a70118f3e8a22a3b4c5f3e5274fe",
        'hillclimb only': "8041531656d74a360303f2138128a6589c08347b1a45d70786baae40df85dba5",
        'sparse only': "5e9a2545333d1e89e0d0fec665bb6ecb27fbafc0d71959df995e5ea719826fa9",
        'hillclimb first': "6db49b5fa5f0ae753dffb6edbda86c9c3206d9b6add7a4e6d86537187e8021c0",
        'hillclimb 104 slots': "5d6529ce9bf2d6d145e2eb3ca40dc7afa450ff914a8e751fc228cef3b1e975e9",
    },
    "X86_V3": {
        'trials=1 seed=7': "a675807b27bffadc58ef165f58e6ef1794be5a37816a844d23cbe279040619e7",
        'trials=52 seed=7': "5084a9f8bc6a92d9a7c9441707957bfd86f3140323d5097d15f765d72fdaedd2",
        'trials=157 seed=7': "1749048cceedd2058ee59cc836bf9a8e1986ff7fdc160728c05a8ea542b1bf0c",
        'trials=200 seed=7': "10ef5a216e93794f53914222625e6fd736d358e65678804c2da66d62c776a85e",
        'trials=1001 seed=7': "fad3f5071a2c8a004ec94b6d0144f9277adccbbe2b46ce1a79d679c05593a8d2",
        'trials=5000 seed=7': "92076667f2c75b05021bf8446d578a91d83936fe2cd76b0de01047edd3e9552f",
        'trials=1 seed=20040': "d153bd42e4fcffa351fde15d9168e5e4d1f7445924ad11ab2c19498ff7ab492f",
        'trials=52 seed=20040': "948991bc41670240dcbe8a675e708a9cf7b64463a38c6dc5af793da7661c7ff2",
        'trials=157 seed=20040': "0d906fc8e273f88af6eb56234322b2b723d8131cf54cd64bae275210c8bbb573",
        'trials=200 seed=20040': "a5baf3fc1aa9ea9c914f88e1afab9503aa921b60e4a34903e5aeed83e0c89761",
        'trials=1001 seed=20040': "934e0fe0608d4379e560518b5733518c0041155da448bcc1210ead41b8da46d7",
        'trials=5000 seed=20040': "397a62b9c8bc184056aa120f4eae11bd90471e3f153a6e0eae4a94a085044dec",
        'one family': "8949dac8798841d512cff91fe9bf486b3bba2ffae345bbe8e92c18f785afa8d3",
        'dims 64': "7be9e0f1eb5df4aeb9a6e4e0a8760495cd95a70118f3e8a22a3b4c5f3e5274fe",
        'hillclimb only': "8041531656d74a360303f2138128a6589c08347b1a45d70786baae40df85dba5",
        'sparse only': "5e9a2545333d1e89e0d0fec665bb6ecb27fbafc0d71959df995e5ea719826fa9",
        'hillclimb first': "6db49b5fa5f0ae753dffb6edbda86c9c3206d9b6add7a4e6d86537187e8021c0",
        'hillclimb 104 slots': "5d6529ce9bf2d6d145e2eb3ca40dc7afa450ff914a8e751fc228cef3b1e975e9",
    },
}


@pytest.mark.parametrize("case", BUDGET_SCANS)
def test_budget_scan_bytes(capsys, case):
    pinned = BUDGET_SCAN_SHA256.get(_dispatch())
    if pinned is None:
        pytest.skip(f"no scan digests pinned for numpy SIMD dispatch {_dispatch()}")
    code, out = _stdout(capsys, ["scan", *BUDGET_SCANS[case]])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pinned[case]


@pytest.mark.parametrize("case", sorted(BOUNDS_CASES))
def test_bounds_bytes(capsys, tmp_path, case):
    family, p, q, r, extra, want = BOUNDS_CASES[case]
    argv = ["bounds", "--family", family]
    for name, w in (("p", p), ("q", q), ("r", r)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"weights": w}))
        argv += [f"--{name}", str(path)]
    code, out = _stdout(capsys, argv + extra)
    assert code == 0
    assert out == want + "\n"


def test_table_is_in_bound_id_order():
    order = (
        "cont1",
        "lb",
        "cont2",
        "improved",
        "lesche3",
        "lesche4",
        "fannes",
        "relent_I",
        "relent_D",
        "condition1_segment",
    )
    assert tuple(check.bound_id for check in CHECKS) == order
    assert BOUND_IDS == order


def _applicable(fam, with_r: bool, with_epsilon: bool) -> set:
    """Bounds that must be reported or listed as skipped, by the docs."""
    ids = {"cont1", "lb", "cont2", "improved"}
    if fam.kind == "tsallis":
        ids.add("lesche3")
    if fam.kind == "shannon":
        ids |= {"lesche4", "fannes"}
    if with_r:
        ids |= {"relent_I", "relent_D"}
    if with_epsilon:
        ids.add("condition1_segment")
    return ids


PAIRS = {
    "identical": (P, P),
    "near": (P, Q),
    "far": ([0.9, 0.1, 0.0], [0.0, 0.2, 0.8]),
}


FAMILIES = (pe.shannon(), pe.tsallis(0.5), pe.tsallis(-0.5), pe.kappa_maxwell(0.5), pe.sqrt_log())


@pytest.mark.parametrize(
    "fam, pair, with_r, epsilon",
    list(itertools.product(FAMILIES, sorted(PAIRS), (False, True), (None, 0.5))),
    ids=lambda v: v.label if isinstance(v, pe.LogFamily) else str(v),
)
def test_reports_and_skips_follow_bound_ids(fam, pair, with_r, epsilon):
    p, q = (pe.validate(w) for w in PAIRS[pair])
    r = pe.validate([0.2, 0.0, 0.8]) if with_r else None
    reports, skipped = run_bound_checks(fam, p, q, r, 0.6, 0.55, epsilon)
    evaluated = [rep.bound_id for rep in reports]
    want = _applicable(fam, with_r, epsilon is not None)
    assert evaluated == [b for b in BOUND_IDS if b in evaluated]
    assert skipped == [b for b in BOUND_IDS if b in skipped]
    assert not set(evaluated) & set(skipped)
    assert set(evaluated) | set(skipped) == want


@pytest.mark.parametrize("spec", EVAL_SPECS)
def test_eval_bytes(capsys, spec):
    pinned = EVAL_SHA256.get(_dispatch())
    if pinned is None:
        pytest.skip(f"no eval digests pinned for numpy SIMD dispatch {_dispatch()}")
    h = hashlib.sha256()
    for fn in sorted(cli._EVAL_FNS):
        xs = EXP_XS if fn == "exp" else EVAL_XS
        code, out = _stdout(capsys, ["eval", "--family", spec, "--fn", fn] + [f"--x={x!r}" for x in xs])
        assert code == 0, (fn, out)
        h.update(out.encode())
    assert h.hexdigest() == pinned[spec]
