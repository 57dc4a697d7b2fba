"""Golden-output test: every subcommand's bytes are pinned by SHA-256.

Each case runs ``rumour.cli.main`` in-process and hashes what it writes:
stdout, the ``--output`` file and the ``--dump`` CSV.  A refactor that
changes any byte of any output fails here.  A change of output made on
purpose re-records the table with

    PYTHONPATH=src python tests/test_golden.py

and says why in the change log.
"""

import contextlib
import hashlib
import io

import pytest

from rumour.cli import main

# One point per preset (auxiliary values fixed) plus an explicit interior
# point with delta < 1.
POINTS = {
    "dk": ["--preset", "dk"],
    "mt": ["--preset", "mt"],
    "hayes": ["--preset", "hayes"],
    "rho": ["--preset", "rho", "--rho", "0.3"],
    "apq_dk": ["--preset", "apq_dk", "--alpha", "0.8", "--p", "0.7", "--q", "0.6"],
    "apq_mt": ["--preset", "apq_mt", "--alpha", "0.9", "--p", "0.8", "--q", "0.7"],
    "pearce": ["--preset", "pearce", "--p", "0.5", "--q1", "0.2", "--q2", "0.3", "--r", "0.4"],
    "kawachi": ["--preset", "kawachi", "--alpha", "0.5", "--beta", "0.3", "--gamma", "0.5",
                "--theta", "0.7"],
    "explicit": ["--lambda", "0.7", "--gamma", "0.8", "--theta1", "0.832", "--theta2", "0.208",
                 "--delta", "0.6"],
}

# Case id -> argv; "{out}" and "{dump}" are replaced by files whose bytes
# are hashed as well.
CASES = {}
for _name, _flags in POINTS.items():
    CASES[f"limit-{_name}"] = ["limit"] + _flags
    CASES[f"clt-{_name}"] = ["clt"] + _flags
    CASES[f"clt-cross-{_name}"] = ["clt", "--cross-check"] + _flags
    CASES[f"fluid-json-{_name}"] = ["fluid", "--points", "21"] + _flags
    CASES[f"fluid-csv-{_name}"] = ["fluid", "--points", "21", "--format", "csv"] + _flags
    CASES[f"oracle-json-{_name}"] = ["oracle", "--n", "8"] + _flags
    CASES[f"oracle-csv-{_name}"] = ["oracle", "--n", "8", "--format", "csv"] + _flags
CASES.update({
    "fluid-t-max": ["fluid", "--points", "7", "--t-max", "0.5"] + POINTS["hayes"],
    "simulate-jump-chain": ["simulate", "--n", "50", "--reps", "200", "--seed", "9",
                            "--dump", "{dump}"] + POINTS["apq_dk"],
    "simulate-exact-time": ["simulate", "--n", "50", "--reps", "200", "--seed", "9",
                            "--mode", "exact-time", "--dump", "{dump}"] + POINTS["apq_dk"],
    "simulate-dk-no-dump": ["simulate", "--n", "40", "--reps", "150", "--seed", "3",
                            "--mode", "exact-time", "--workers", "2"] + POINTS["dk"],
    "verify-fail": ["verify", "--n", "20", "--reps", "200", "--seed", "1"]
    + ["--preset", "apq_dk", "--alpha", "0.5", "--p", "0.5", "--q", "0.5"],
    "verify-mt": ["verify", "--n", "50", "--reps", "200", "--seed", "42",
                  "--mode", "exact-time"] + POINTS["mt"],
    # N = 1500: rows run past a block of uniforms (DK makes about 2150
    # jumps per replication), m = 2N + 1 is odd so row starts fall at
    # every offset within a Philox block of four, and 1400 replications
    # span two chunks.
    "simulate-block-jump-chain": ["simulate", "--n", "1500", "--reps", "1400", "--seed", "6",
                                  "--dump", "{dump}"] + POINTS["dk"],
    "simulate-block-exact-time": ["simulate", "--n", "1500", "--reps", "64", "--seed", "6",
                                  "--mode", "exact-time", "--dump", "{dump}"] + POINTS["dk"],
    "verify-block-jump-chain": ["verify", "--n", "1500", "--reps", "64", "--seed", "3"]
    + POINTS["dk"],
    "verify-block-exact-time": ["verify", "--n", "1500", "--reps", "64", "--seed", "4",
                                "--mode", "exact-time"] + POINTS["dk"],
    "presets": ["presets"],
    "output-file": ["clt", "--output", "{out}"] + POINTS["explicit"],
    # The sizes the theory-sweep benchmark runs; delta < 1 at the explicit
    # point gives the oracle a two-dimensional support.
    "oracle-json-explicit-n60": ["oracle", "--n", "60"] + POINTS["explicit"],
    "oracle-csv-explicit-n60": ["oracle", "--n", "60", "--format", "csv"] + POINTS["explicit"],
    "oracle-json-hayes-n60": ["oracle", "--n", "60"] + POINTS["hayes"],
    "fluid-json-apq_dk-201": ["fluid", "--points", "201"] + POINTS["apq_dk"],
})


def run_case(argv, tmp_dir):
    """(exit code, stdout digest, digest of each file written) for one case."""
    files = {"{out}": tmp_dir / "out.json", "{dump}": tmp_dir / "dump.csv"}
    real = [str(files.get(a, a)) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(real)
    digests = [hashlib.sha256(buf.getvalue().encode()).hexdigest()]
    digests += [hashlib.sha256(files[a].read_bytes()).hexdigest() for a in argv if a in files]
    return code, digests


# Recorded before the rate-weight and final-size consolidation; a change
# of any digest must be deliberate and noted in CHANGES.md.
GOLDEN = {
    'clt-apq_dk': (0, [
        'cf6ffcbc4e302ed6bafc0dc352f3d95408ff4e096ebb45923e9e7cbc32816b1c',
    ]),
    'clt-apq_mt': (0, [
        'a32f4a5882651539cc485562d2c085724d3641241db6ae6e7bf351e28e0aedd8',
    ]),
    'clt-cross-apq_dk': (0, [
        'a811ecfb7aecd3456955a3dcd708a26a4ee30075157ac30f05c2254219d6f490',
    ]),
    'clt-cross-apq_mt': (0, [
        'c9062dbae2b0a2a8c50aff4550c073f94da574cea38be5c3568b5dc5c8003331',
    ]),
    'clt-cross-dk': (0, [
        'a5c0ac5aa4a97fca7d074ffbe11ca95711aa408ff0c76ab48bdd7cc19c01761b',
    ]),
    'clt-cross-explicit': (0, [
        '90dbd3bc987dd48d44501e97de8c8be8bf66f0a8d1ead85c2bec94e2faa4fdd0',
    ]),
    'clt-cross-hayes': (0, [
        '133319f2934eaf93204cf30020110f7ad63a66d25ff997bdce3fc0dac8e2ae07',
    ]),
    'clt-cross-kawachi': (0, [
        '30c17dac9c3b5cacecb579573952a52a31bdd13d0ae4d24caebad1840dd339ae',
    ]),
    'clt-cross-mt': (0, [
        '3f31cc2651d7a41046ab73aa854f9315b7c389f23bc4af98163b47e5dfeed685',
    ]),
    'clt-cross-pearce': (0, [
        '478a04fa667da3d681775b109bf1ae482ea3a1cb68358cbdb226678a45c9e35c',
    ]),
    'clt-cross-rho': (0, [
        '0942c503df9717156463c8a1a0be71169fcc764c768255c098ff3107d3adf2c4',
    ]),
    'clt-dk': (0, [
        '4dbd62c0ca637e08547f9ece7b70ff198612605b738af765c9e0cbaabaa9791a',
    ]),
    'clt-explicit': (0, [
        '3e710d8dbbf20a0df0612031b10aef10b39cc8afd45b9efb34c27240aa56c590',
    ]),
    'clt-hayes': (0, [
        '5bf153485f4df8fe5b992195250501c3da8e1e3fcc1b13ebf8ee14dc9104424b',
    ]),
    'clt-kawachi': (0, [
        '2483fda2a60bdd2c9c8f66f7e0d950b373aa4272dcfe9fbbd4a9cfbb01d49544',
    ]),
    'clt-mt': (0, [
        '30243b5e8717b34fd3dc9265f422f878d8d19b01eff34dcd391e8fd1f010c87d',
    ]),
    'clt-pearce': (0, [
        '0112b6b33613ea2548b2583bfecce164d1564b24ff4bbdff14a168001a6a362a',
    ]),
    'clt-rho': (0, [
        '23866c4af2bf0ca2b2789e7c846832e7d74c35aef29bd13f86ab8506649fd2b0',
    ]),
    'fluid-csv-apq_dk': (0, [
        '0fc4b5d914d9812a1ca0f5b6e6b88f2f25789b35d53b34271d2f824d4fd65341',
    ]),
    'fluid-csv-apq_mt': (0, [
        '6377255f4a2cd094637e3857c3ef0f5529ecebe28c733ea6f4c3b636e268264e',
    ]),
    'fluid-csv-dk': (0, [
        '751811a00342bfb5449c15e907e6f9a897ef4d6091572bcd9b28d96e41880ea1',
    ]),
    'fluid-csv-explicit': (0, [
        '0fc4b5d914d9812a1ca0f5b6e6b88f2f25789b35d53b34271d2f824d4fd65341',
    ]),
    'fluid-csv-hayes': (0, [
        'bfd9135fcc53a40fd904773e385158d3f1943da39547249c39874b2af81904c8',
    ]),
    'fluid-csv-kawachi': (0, [
        '41b27c17e8931da393736307d47bdda60c3e81b2231af326282ae48baccfb2e1',
    ]),
    'fluid-csv-mt': (0, [
        '751811a00342bfb5449c15e907e6f9a897ef4d6091572bcd9b28d96e41880ea1',
    ]),
    'fluid-csv-pearce': (0, [
        'eed0ccf3b104dae0f3387e6e666d26501a84e0caea4641ba73073c742d3d4e09',
    ]),
    'fluid-csv-rho': (0, [
        '751811a00342bfb5449c15e907e6f9a897ef4d6091572bcd9b28d96e41880ea1',
    ]),
    'fluid-json-apq_dk': (0, [
        '302861545c7eec29c33e558002ca6803e4e43c710a28808d86c8c6882dbb23a1',
    ]),
    'fluid-json-apq_dk-201': (0, [
        '965ba65e5a8209c4c8adbf842bb83c589ddde9d392332678d2a12bb8da0a39b9',
    ]),
    'fluid-json-apq_mt': (0, [
        'f78b7358310cb7ceb5d471a1efa4df9511b86e20908d693d704552f46062aab7',
    ]),
    'fluid-json-dk': (0, [
        'ba91bdb4561cd5c08c9373d9b7c5a56179327947c0c11b435e9e78fa9ea1081c',
    ]),
    'fluid-json-explicit': (0, [
        '8d6cdfbe3ea2daa0f078797ea8f37d793fd37774cc9a8fac0724bc4e530294c6',
    ]),
    'fluid-json-hayes': (0, [
        '5935ebf134ea871911fa154a7cec224f2e7be9fdb221c19a967ae2851596d06c',
    ]),
    'fluid-json-kawachi': (0, [
        'ff3784b20b711eee5f38d2199a9e0d928da9261e63a5a8c15b23c1b169f5bbb8',
    ]),
    'fluid-json-mt': (0, [
        '096aacb9c36afa97481cb69d08ad5aee4a9fab36c314c226093abd24c44b7843',
    ]),
    'fluid-json-pearce': (0, [
        '59b40ca9a4fddc7736c98a871a2cb0721fde26309bae71692df57130343eded6',
    ]),
    'fluid-json-rho': (0, [
        '1cfda811d58de1b08b3bcc2cf667f3f44c1733a90526dff11e2ef2351e6e22cf',
    ]),
    'fluid-t-max': (0, [
        '571475920037f07688ee1d887f8a3b608ff7a5f603d42b76b08d371f6dd5fa08',
    ]),
    'limit-apq_dk': (0, [
        'f4b5b7727025468cfd90a3dc8ba7fed7be3484b7b127c9a14e22b9fd69fe750d',
    ]),
    'limit-apq_mt': (0, [
        'dc2369c24e5c5734661ee5ebc0e37ba644f125372afe237cc8222bb553ae7a31',
    ]),
    'limit-dk': (0, [
        'b543ad213d7e91e44ccf28df3c4749b95cfbd401615ac2d886b9701e35b82be8',
    ]),
    'limit-explicit': (0, [
        '5d43b743ffc220c6b15e25289c5e56c8117fe07075281ea048cbcf01ac1562d2',
    ]),
    'limit-hayes': (0, [
        '24ce9557464376a9f15273cf38717f6ff724fb419fd626f5a65adb830a3f2cec',
    ]),
    'limit-kawachi': (0, [
        '4358edfb26bfb1892be046506c6505ccc63743d8a37996883b8d52d419950d34',
    ]),
    'limit-mt': (0, [
        '12803d1417b36d89be07f66825f3c0e5d9ddf320f61e071d948c7e04e54597cc',
    ]),
    'limit-pearce': (0, [
        '20c0172e57e1571973afa7ebcc90b0cfeebb9083882500918e712128501857ec',
    ]),
    'limit-rho': (0, [
        '0208df37d57b625071761734b9403fa250f5de13a3238220dad59b7d02d84f9a',
    ]),
    'oracle-csv-apq_dk': (0, [
        '20dfde07aece78a05caf37ee75942c898e46ef955182e78549f63d409c0673a9',
    ]),
    'oracle-csv-apq_mt': (0, [
        'e263c9aa7137f1f3cc8ea2e98b5eef2306b0a73aaa4b53cbf3064d6cc38866e0',
    ]),
    'oracle-csv-dk': (0, [
        '6b6e4469a6dead5501b7d53b643fb7a55838f93a75746f060e16238b7e5511cc',
    ]),
    'oracle-csv-explicit': (0, [
        '015df4e2a20b499e0df74e68545509fdc8725b8d66a78ce2c2fee94cbf35c68f',
    ]),
    'oracle-csv-explicit-n60': (0, [
        '87f74385f111efe491fbb5f78fe65bbe782b5ba322fbeeb9f409aefe2b57a254',
    ]),
    'oracle-csv-hayes': (0, [
        'c19e3ed07ce727ecceefb51f09a3b63ba8f65fae60ce282054ac60649875bb50',
    ]),
    'oracle-csv-kawachi': (0, [
        '2097e903bfaa9b37fa32f77f93381a3bf23e50aeab648969781a729a39fbf81e',
    ]),
    'oracle-csv-mt': (0, [
        '1e28ddebf682b661e76ae4dc210cd9928795cddc9642633bbb74a46c234f3289',
    ]),
    'oracle-csv-pearce': (0, [
        '144bd84c00595de68c38559840ce94d1e66fb2661e4f76e797b8a99de28f1d66',
    ]),
    'oracle-csv-rho': (0, [
        '70ea2e827676751017ff5e8a50238074fe4eda0235c712a39811d86c009a77b6',
    ]),
    'oracle-json-apq_dk': (0, [
        'e3632077cc99d5e5ca44a027274f728f2792fd6e38312c1ca0f3fc3d5c720987',
    ]),
    'oracle-json-apq_mt': (0, [
        'a602032a249476fe170eb5779657018a888fe6bc95910748684e0353110b9207',
    ]),
    'oracle-json-dk': (0, [
        '878a5006574f1ab3322a9e820cf2dc10fdd4f9e5a957564f769cc8a1f0c1a627',
    ]),
    'oracle-json-explicit': (0, [
        '795e1401af22617d4e1e575dc39a3763f652043e508959af97839bd5f4055348',
    ]),
    'oracle-json-explicit-n60': (0, [
        '257018376d0c1215b8534e24037e0db4691273dcc62f0373da6577ae2848640f',
    ]),
    'oracle-json-hayes': (0, [
        '56a345d46ff5b5330677e0f6c8278863f06efd826b424e61bc6b6f4ed5a975f3',
    ]),
    'oracle-json-hayes-n60': (0, [
        'e06f2b7ca0e53f1d2048b937f2b4a61e0e6703d30d519c2138fa85450e4b811c',
    ]),
    'oracle-json-kawachi': (0, [
        '2f86d1bcb2169eed27cea5295cb36058e0a1c8f12ece8672a6979f34ec9a98d7',
    ]),
    'oracle-json-mt': (0, [
        'b2aa4ee339a4dc6e57ff12879390fcf83c2905b752a9a1ae37292d9986ad4fc1',
    ]),
    'oracle-json-pearce': (0, [
        '90e0db20f605dca4a77b2156b7d408fb12503b21b4c8f6c1c5db680b73b3d8cc',
    ]),
    'oracle-json-rho': (0, [
        '03bad6e411dfc681648210aa2629da863506417a90b057114cd32bb40108f08b',
    ]),
    'output-file': (0, [
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3e710d8dbbf20a0df0612031b10aef10b39cc8afd45b9efb34c27240aa56c590',
    ]),
    'presets': (0, [
        'bf58289067ed2b4d8052c877cf39b4afe37c181870d474ae9a599104529a755f',
    ]),
    'simulate-block-exact-time': (0, [
        'a1a21e27e658888cc7075616d36326e8f08c0cacb41c5c13d2f6ad903671b495',
        'f4a1c6dc46a52f219865b905ed95e191af0a3bd1de46498c5a43b58cc4dda59e',
    ]),
    'simulate-block-jump-chain': (0, [
        '56d16e69c3bd60a499f016f2404d0901404451e765430bdcac957481a5fc513c',
        '1a8268f8264a02bc93a2c6466af74c99cedb55b2763cea7dd9bda1bfcf2580d1',
    ]),
    'simulate-dk-no-dump': (0, [
        '3fbef5b9d61abcd3e0c6cefec43c876e50deab649b3960196668f3430b65d6af',
    ]),
    'simulate-exact-time': (0, [
        'f4b60cc5aa19676c52a2f5bf55698ba326dfa4ffa21c5ff7f70a423bc34e9c17',
        '46d2c166d0d8d01092efa5dbca9a11b213c5b34d95f10101d16b0c32a42c6c05',
    ]),
    'simulate-jump-chain': (0, [
        '51a7acc04bb4eb2f550c26b08942e385cb0bc4547d353a16563b54d2ce09f696',
        '3b77de0c6ac89ef34fe2a38cbc9e7df35faa2562245a9cb1fe1b1310d3697b62',
    ]),
    'verify-block-exact-time': (0, [
        'c67db38f716407463d16f7452bba7a813dfc991472a9c9620d0226c9f7e16464',
    ]),
    'verify-block-jump-chain': (0, [
        '4291cc5ee0be47f125196647b7576180d4589422312af44a83f04915eaa9733a',
    ]),
    'verify-fail': (1, [
        '9cd461aae58ef0627efc9a522e4c810848c68f0123ab9e4ba3135e9b9e7ba5ef',
    ]),
    'verify-mt': (0, [
        'b4adba86ef095547c941c26e7c872f0311adb64e107dd6387a80baa8fe71320f',
    ]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    code, digests = run_case(CASES[case], tmp_path)
    assert (code, digests) == GOLDEN[case]


def test_every_subcommand_covered():
    assert {argv[0] for argv in CASES.values()} == {
        "limit", "clt", "fluid", "simulate", "verify", "oracle", "presets"
    }


def test_no_stale_digests():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    print("GOLDEN = {")
    for _case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            _code, _digests = run_case(CASES[_case], Path(d))
        print(f"    {_case!r}: ({_code}, [")
        for _h in _digests:
            print(f"        {_h!r},")
        print("    ]),")
    print("}")
