"""Pinned CLI output: the ``scan``, ``bounds`` and ``eval`` JSON must not change by a byte.

The bounds payloads and the eval and scan digests below were produced by
the first release whose kind table gives omega in closed form and holds
every kernel to an error budget (Python 3.11.7, numpy 2.4.6); any change to
the check order, the arithmetic of a kernel, the summation or the scan's
draw protocol shows up here.

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
        "1": "158a7876b8495b4c8b36dabe818128f54b280ab958bb3fa66c71bda77d500073",
        "2": "dfe11c5a5a19a29f05b7a29c6d1d2c0edb2b468054b5c2704939738d255bf8ea",
        "3": "97128e3ca56df5068e4de66c07b1501f6c424aa18ca3462b72d3c7915664d146",
        "271828": "a3836de70e6c036ed71850bbcae91a5089b2f6d612d5e706ec3b52c269387b68",
    },
    "X86_V3": {
        "1": "158a7876b8495b4c8b36dabe818128f54b280ab958bb3fa66c71bda77d500073",
        "2": "9212e13708327baca9e94bd01f1b8c4672d0eb7478c3387c0ed4645052c4b430",
        "3": "394c52591f86dce34609ea231d584ed172ae586d167ef519d3ab691773f69d0f",
        "271828": "08416bb5661d455f42caa0f2b052c38a5653f4cfddbd1f70e082b93b1dc7c5c7",
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
        '{"bound_id":"lb","holds":true,"inputs_digest":"26ffe0c9af434287","lhs":-0.12132034355964261,"ratio":-0.20710678118654763,"rhs":0.5857864376269049,"tol":1.585786437626905e-10},'
        '{"bound_id":"cont2","holds":true,"inputs_digest":"ee2cff64617f9b01","lhs":0.0,"ratio":0.0,"rhs":2.0,"tol":3e-10},'
        '{"bound_id":"lesche3","holds":true,"inputs_digest":"38b0fc8a20f5c7e4","lhs":0.0,"ratio":0.0,"rhs":2.0,"tol":3e-10},'
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
        '{"kind":"shannon"}': "ceacad2e221aef5839dc32cdbfb258a05b05b049ff6ad201e1db87f992760cb6",
        '{"kind":"tsallis","kappa":0.1}': "0d3cc9c7ebd51d09ad9e715d120a57eebc9080498f15b109634f2bc27a31f2f6",
        '{"kind":"tsallis","kappa":-0.1}': "2cdcb7c75ea48bceea902a22acd7e1a30cfd47e46322bd314a4dcca92d69589d",
        '{"kind":"tsallis","kappa":0.5}': "7c0699f9bd9cc68c62180f8d3b4cdb5ef97e4da15378a7150a1da959db40da04",
        '{"kind":"tsallis","kappa":-0.5}': "0140d0e7b27faae356a82ca6610173d31f69e0069222d5e8801da6a064cd9ffb",
        '{"kind":"tsallis","kappa":0.9}': "a1c65f4591aa2b808f723e45f53b67b6601070d6f747a022241e5f1493fc969c",
        '{"kind":"tsallis","kappa":-0.9}': "78aa635266194552fb090c8cd88d7b499d0c7ece0bcd1c3f1cc20e2012989542",
        '{"kind":"kaniadakis","kappa":0.5}': "4027e582fe753a21cec72875c383c4a78366c3f552098083f360bbc444d10934",
        '{"kind":"kaniadakis","kappa":-0.5}': "db2c9414a896d98cc8d9ad421958d0950159cd39965c9417edfc97c5af6e5570",
        '{"kind":"kappa_maxwell","kappa":0.5}': "c52cc3d9e2102b1a547de4227c8f7802a4552f24ce6471b80a8da7eaf4481b72",
        '{"kind":"kappa_maxwell","kappa":2.0}': "6deef6f54484b42b5e209dc4e09db2fb91aa4b44dd14582239f8b535a3f7d731",
        '{"kind":"sqrt_log"}': "d9bb7e820f8e2e51a190c866705d7765c12ac3cba48a4eaa6c215d039117451f",
        '{"kind":"piecewise_linear","base":2.0}': "e4cd8308d306bb75866301f48d27d9fdd4eb5c7ee12c9dfcf1e6b79f815f15e2",
        '{"kind":"piecewise_linear","base":1.1}': "2113cd25912506a5f018d31df3eb5afda41f8278de7528bb9d9f13c593f1ff40",
    },
    "X86_V3": {
        '{"kind":"shannon"}': "ceacad2e221aef5839dc32cdbfb258a05b05b049ff6ad201e1db87f992760cb6",
        '{"kind":"tsallis","kappa":0.1}': "f548e4feab7bd8e9355598ede4b0b000436c3641b9e89aff7853e29342169abe",
        '{"kind":"tsallis","kappa":-0.1}': "7e88db0027b97f511c0ad347a701447ccfccb3a2d87c1210014e4ac97a84c2d5",
        '{"kind":"tsallis","kappa":0.5}': "f0b910f29c761f3e2f5dd032b1316abefc2cddd23570afab12ad1b40c2b91fda",
        '{"kind":"tsallis","kappa":-0.5}': "f7325332cdcc3962eb559206a67ea6a2ca4949d4254ee016df030aaf4df9019a",
        '{"kind":"tsallis","kappa":0.9}': "46a113efde0071ef3a6cea77d53e467d20db12b5a98a9ce34fbe546533c85167",
        '{"kind":"tsallis","kappa":-0.9}': "84a7cf69e88afccc95700522dd887a1253f3359d20868d9d13e1161c6faa67cc",
        '{"kind":"kaniadakis","kappa":0.5}': "8d012de1c465dee131ebe8f63871a394d2179522a4b1c1c32083ca2d61b29eff",
        '{"kind":"kaniadakis","kappa":-0.5}': "504d9e93ea7de29d2a9abc65c14bc2cedb1d26df89fd972ae0ac5e83db0c1f62",
        '{"kind":"kappa_maxwell","kappa":0.5}': "7977d6fcd6906eab9df97cd68ec62dcd42e4316a82d900865e5b0881348ea6ce",
        '{"kind":"kappa_maxwell","kappa":2.0}': "5f305a0a15d9e6f1a5b35cb05c5d1f20373e0fc5cdaede2816bdd85f43b59623",
        '{"kind":"sqrt_log"}': "d9bb7e820f8e2e51a190c866705d7765c12ac3cba48a4eaa6c215d039117451f",
        '{"kind":"piecewise_linear","base":2.0}': "e4cd8308d306bb75866301f48d27d9fdd4eb5c7ee12c9dfcf1e6b79f815f15e2",
        '{"kind":"piecewise_linear","base":1.1}': "66f6f4e4708e405e8bf3be27b2427d523787863a737df5d445b425fba34e9297",
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
        'trials=1 seed=7': "258f3c46ff3786320651b4404179c347f98c820716867e44778ad127750c5033",
        'trials=52 seed=7': "24407c62956f07bf60392e262b50be3f5bc3dd2e5167dea7623c1d54210c5794",
        'trials=157 seed=7': "a84b5a148304cf2dd075aa46563558fd55f02bcea41a382c133bc1f474579631",
        'trials=200 seed=7': "ac97651f5bb3eb1ba8f02bf351e5c83b22f53664f03a41ce24b560b2adf5256c",
        'trials=1001 seed=7': "4f02209ae62bf2b58d3bea552fff668a426a4c5177b04804235b55c2c7fef3bd",
        'trials=5000 seed=7': "6c9b05fd3db62dc39c285a4677bd86f26fae77770018c1daeed6e89dc7e1b5a9",
        'trials=1 seed=20040': "9420b7d88cedafac90cec9bd878b5f0334185f034b1029703d865447f5c18f5d",
        'trials=52 seed=20040': "739414794658f96c88c14a5b08700245fb9cd050571966381ac1b5a56d8c7007",
        'trials=157 seed=20040': "7d9d74649ec3ffa953a94c3e55f403491f42b862da409a3c043d8a86d6b9770a",
        'trials=200 seed=20040': "0937b1eb45cf15978a4eb3f209c3d4a48df3e6a382456c93ccf9b79c717b678b",
        'trials=1001 seed=20040': "6b573a932906b1f742fb2634fa363a535f7c9dd1380a9c0ac6dd151003df99c3",
        'trials=5000 seed=20040': "dbcfe6ae47de28dea7fc1fbb9d5f3975b32f23635951d96928567ce661b189f8",
        'one family': "425f3e5ebf073a1f6cc63dec8d9b26a6842a7222a267f5ae66d1802eb7d16ff8",
        'dims 64': "0fef7ffa6d08c79b6b5dba90e2604ee8427eecf8fb9c0d72c3c387efbf79346a",
        'hillclimb only': "9e086cd9ea94559f3d6737bd56dac500c425fc0c29b4547ae7f7a7842f6c31c8",
        'sparse only': "10e2cc82011aa80501401c7a4be3f60e6b84e9ebc237f26a0b0a3c2873ca6774",
        'hillclimb first': "60928d708d18b73c47e2ee8094a8e4aad6762b22bc203c2ba04d1eaaf9f0569d",
        'hillclimb 104 slots': "4af9ad5a250fca8311a0b627823ea3cafd126a4d3fd600ef04dbfed68d9f4e50",
    },
    "X86_V3": {
        'trials=1 seed=7': "258f3c46ff3786320651b4404179c347f98c820716867e44778ad127750c5033",
        'trials=52 seed=7': "576187501c067cd914c025fe4aa2da06abcbae7fe56737c98795877f24ff355b",
        'trials=157 seed=7': "a84b5a148304cf2dd075aa46563558fd55f02bcea41a382c133bc1f474579631",
        'trials=200 seed=7': "ac97651f5bb3eb1ba8f02bf351e5c83b22f53664f03a41ce24b560b2adf5256c",
        'trials=1001 seed=7': "4f02209ae62bf2b58d3bea552fff668a426a4c5177b04804235b55c2c7fef3bd",
        'trials=5000 seed=7': "6c9b05fd3db62dc39c285a4677bd86f26fae77770018c1daeed6e89dc7e1b5a9",
        'trials=1 seed=20040': "9420b7d88cedafac90cec9bd878b5f0334185f034b1029703d865447f5c18f5d",
        'trials=52 seed=20040': "63ab8ebd1298c5d62303eff58eac4e4cd593acfc70a96f6eacc0c723949ae3ee",
        'trials=157 seed=20040': "59033c7bf96723fd6bbf0c11f8ef9e829e40b67d49ef16b38fd2b64441105606",
        'trials=200 seed=20040': "c56ab3acd34cfa05b5675dfbe9d5f95163266bb5a8e03bf7385bddb209fb16b4",
        'trials=1001 seed=20040': "2340c8c4a0f8558fb6d8fad62f4604e0062f37b2ff281ff77e65275e5d5c492d",
        'trials=5000 seed=20040': "cd3ec1e7d7b1b0617f35bda77391aa822dca652a280a0aa2ba6c9f1b61ab1653",
        'one family': "1b9d73bc3ec9ed12e60b6c674bd1c4b13d49e3802515d8347bec937288024618",
        'dims 64': "0fef7ffa6d08c79b6b5dba90e2604ee8427eecf8fb9c0d72c3c387efbf79346a",
        'hillclimb only': "9e086cd9ea94559f3d6737bd56dac500c425fc0c29b4547ae7f7a7842f6c31c8",
        'sparse only': "10e2cc82011aa80501401c7a4be3f60e6b84e9ebc237f26a0b0a3c2873ca6774",
        'hillclimb first': "60928d708d18b73c47e2ee8094a8e4aad6762b22bc203c2ba04d1eaaf9f0569d",
        'hillclimb 104 slots': "4af9ad5a250fca8311a0b627823ea3cafd126a4d3fd600ef04dbfed68d9f4e50",
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
