"""Pinned CLI output: the ``scan``, ``bounds`` and ``eval`` JSON must not change by a byte.

The scan digests and bounds payloads below were produced by the release
before the check table was introduced, the eval digests by the release
before the kind table (Python 3.11.7, numpy 2.4.6); any change to the check
order, the arithmetic of a kernel or the summation shows up here.

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
        "1": "65f67e5ade2074f5934520e0f85b57af22bcccbeb852d7d7256e67223e295963",
        "2": "b65e6e17d67f85ef76ce9daa90986ef22d2568df7e80338371252e80750b6470",
        "3": "07a08d467e774a8aa1057edf51da7fc4f4e5edf0f89d43572014bf3351b74cf2",
        "271828": "5306e816381ae6b485b193548a1f7622dc38a0daab33c2164bba1b64b24f4ba5",
    },
    "X86_V3": {
        "1": "9c92262abbaeb7e1a6de88481e22a8e7536d46b85c85dc0541f5620cf522af42",
        "2": "b65e6e17d67f85ef76ce9daa90986ef22d2568df7e80338371252e80750b6470",
        "3": "07a08d467e774a8aa1057edf51da7fc4f4e5edf0f89d43572014bf3351b74cf2",
        "271828": "d82faf388d1d6da8a844dec16d5ee3a980f4357edf9480cf8343299fca9fc22a",
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
    # tv = 2: improved, the unsupported relative-entropy pair and the
    # segment outside its radius are all skipped
    "disjoint": (
        '{"kind":"tsallis","kappa":0.5}', [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], ["--epsilon", "0.1"],
        '{"all_hold":true,"family":{"kappa":0.5,"kind":"tsallis"},"reports":['
        '{"bound_id":"cont1","holds":true,"inputs_digest":"f0cb3537d2b68417","lhs":0.0,"ratio":0.0,"rhs":2.0,"tol":3e-10},'
        '{"bound_id":"lb","holds":true,"inputs_digest":"26ffe0c9af434287","lhs":-0.12132034355964272,"ratio":-0.2071067811865478,"rhs":0.5857864376269049,"tol":1.585786437626905e-10},'
        '{"bound_id":"cont2","holds":true,"inputs_digest":"ee2cff64617f9b01","lhs":0.0,"ratio":0.0,"rhs":2.0,"tol":3e-10},'
        '{"bound_id":"lesche3","holds":true,"inputs_digest":"38b0fc8a20f5c7e4","lhs":0.0,"ratio":0.0,"rhs":1.9999999999999991,"tol":2.9999999999999995e-10}],'
        '"skipped":["improved","relent_I","relent_D","condition1_segment"]}',
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
# of one mode, and scans of one family, one dim or one mode.  Captured on the
# release before the scan ran slots as lanes (Python 3.11.7, numpy 2.4.6),
# by running ``phientropy scan <argv>`` and taking the SHA-256 of its stdout,
# at default dispatch and with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR" for the X86_V3 set.  The "hillclimb 104 slots" scan, whose
# hill-climb blocks have 104 slots, was captured the same way on the release
# that ran at most 52 hill-climb lanes at once.
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
        'trials=1 seed=7': "1e1200e4616fe783a21732a8a41e2fd86d9c2c7fb055c96d40bf762939880b42",
        'trials=52 seed=7': "44c7e458a9783a366b7a5574e40bcb1a10464bcf9a5308afc6270581670a8424",
        'trials=157 seed=7': "88a9fb4bdf2c3b2c2c38cb1f5f53dc104aea6ce902bb769989a280e03e596ff9",
        'trials=200 seed=7': "faffb8eae6dd4183d21edd630dbb1f18b4a3d8ea64df059e5e0a78cf4ffb1e08",
        'trials=1001 seed=7': "7c078fe7dc1f414dd86625ecf1aa9c44226e151b6851cbd1983919c0f605bc78",
        'trials=5000 seed=7': "9fce88b4abd9cd6a30f27b1727dd4da7817562da8e6007bb5157faa7b19af804",
        'trials=1 seed=20040': "b3b6b3188223719cf148b45797b6bf2688d39dd7c95ce7c9789e7f31c0b48104",
        'trials=52 seed=20040': "01f394b412756df0675c99ee512e32c3080a1713710297c960fbb9d0a7e45358",
        'trials=157 seed=20040': "149af8464b022a5cd68fddb6173f204071161fa19bbbcc7daa7db21ae6749c68",
        'trials=200 seed=20040': "5621cb63f6116704675fbe0558f82f9d66b8debaf9b324e8daa4ea4152464577",
        'trials=1001 seed=20040': "116a92b4a2f50da0b2ecdc807325f1f1f30e86d2a8d819b975605c1c554a7573",
        'trials=5000 seed=20040': "e8aad8214bce6489acd0aeb25a9149c3bf51cde6d9e4cd6e2273a0f286a0b300",
        'one family': "c63096b6677ddf1ec28cd81e9c0047c9c98399d46b8632209282aa6335ae7913",
        'dims 64': "c5d901175fe14c923164dbba0efbc20be7d863e451cf85d7757ebdae206f7edd",
        'hillclimb only': "721e0367d99bf1629df36438f54ba1c1ba0bb7b2623b79459738c02c227f8ce4",
        'sparse only': "0abd4fe2c66e7017093d787413b2f866a3a783c2f0b3bdc1daaae10110360d0a",
        'hillclimb first': "29a4a66158a9bd2250e364d80b3d71dc561cace96e1f63ff80ff4bbb10896b60",
        'hillclimb 104 slots': "1d925d59e2e97fc1e5c64f806365cfc6f65061864ffc2952e7748735c6d706a7",
    },
    "X86_V3": {
        'trials=1 seed=7': "1e1200e4616fe783a21732a8a41e2fd86d9c2c7fb055c96d40bf762939880b42",
        'trials=52 seed=7': "44c7e458a9783a366b7a5574e40bcb1a10464bcf9a5308afc6270581670a8424",
        'trials=157 seed=7': "88a9fb4bdf2c3b2c2c38cb1f5f53dc104aea6ce902bb769989a280e03e596ff9",
        'trials=200 seed=7': "faffb8eae6dd4183d21edd630dbb1f18b4a3d8ea64df059e5e0a78cf4ffb1e08",
        'trials=1001 seed=7': "7c078fe7dc1f414dd86625ecf1aa9c44226e151b6851cbd1983919c0f605bc78",
        'trials=5000 seed=7': "9fce88b4abd9cd6a30f27b1727dd4da7817562da8e6007bb5157faa7b19af804",
        'trials=1 seed=20040': "b3b6b3188223719cf148b45797b6bf2688d39dd7c95ce7c9789e7f31c0b48104",
        'trials=52 seed=20040': "beb521aeb40a5a16e80c18d3269c162734379fae523a44325531d67dbaa88b2b",
        'trials=157 seed=20040': "dd740ca640f161ddec8aedf40f1414e0a017695f00b67ffa75be9fbf7691bfed",
        'trials=200 seed=20040': "d07b2d30ab622fe9296d60e10c7280c6e9a4538f48e51d7b1e3ece6fedf0d1ea",
        'trials=1001 seed=20040': "33292248f24e891d49a915ba1e0a586e3ef67446f4545fc601f596345fff8df9",
        'trials=5000 seed=20040': "433747fe19a0c8446cae0fc767632c2e2675b6f9e035c33870c2f3e0e9be5658",
        'one family': "ca5dbd07bde95efc1a504081895e1d7768b2f29bc4cfb0a75dfe19b5f3b4533d",
        'dims 64': "c5d901175fe14c923164dbba0efbc20be7d863e451cf85d7757ebdae206f7edd",
        'hillclimb only': "721e0367d99bf1629df36438f54ba1c1ba0bb7b2623b79459738c02c227f8ce4",
        'sparse only': "0abd4fe2c66e7017093d787413b2f866a3a783c2f0b3bdc1daaae10110360d0a",
        'hillclimb first': "29a4a66158a9bd2250e364d80b3d71dc561cace96e1f63ff80ff4bbb10896b60",
        'hillclimb 104 slots': "1d925d59e2e97fc1e5c64f806365cfc6f65061864ffc2952e7748735c6d706a7",
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
