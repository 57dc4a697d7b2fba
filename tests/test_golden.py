"""Golden-output test: every subcommand's bytes are pinned by SHA-256.

Each case runs ``rumour.cli.main`` in-process and hashes what it writes:
stdout, the ``--output`` file and the ``--dump`` CSV.  A refactor that
changes any byte of any output fails here.  A change of output made on
purpose re-records the table with

    PYTHONPATH=src python tests/test_golden.py

which prints the new table to stdout and the ids of the cases whose
digests differ from the table below to stderr, and says why in the
change log.
"""

import contextlib
import hashlib
import io
import sys

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
    # Few rows, many jumps: four rows at N = 10^5 each read many blocks of
    # uniforms, and six exact-time rows at N = 20000 with delta < 1 absorb
    # at different steps.
    "simulate-few-rows-dk": ["simulate", "--n", "100000", "--reps", "4", "--seed", "2"]
    + POINTS["dk"],
    "simulate-few-rows-exact-time": ["simulate", "--n", "20000", "--reps", "6", "--seed", "4",
                                     "--mode", "exact-time", "--dump", "{dump}"]
    + POINTS["explicit"],
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


# Last re-recorded when the Lyapunov-ODE oracle came to integrate Lambda's
# six distinct entries in Python floats, not all nine in numpy: the error
# norm became a mean over six components, so the steps and the printed
# max_abs_deviation of the nine clt-cross cases moved (by up to 4e-12, to
# 1.4e-11 .. 3.8e-11); no other digest changed.  A change of any digest must
# be deliberate and noted in CHANGES.md.
GOLDEN = {
    'clt-apq_dk': (0, [
        'cdeb6098f37f763f203a30efcf3bed919055d430316da05880037af90d277a73',
    ]),
    'clt-apq_mt': (0, [
        'ebc006ce8b861063c4a185fb690d1710ad550899387ace0b7facc2c63cbba1e0',
    ]),
    'clt-cross-apq_dk': (0, [
        '2869dfcd6613936be1e2a0fa9b5659c07a48ed6d2d55d67dca738d1dcf8802f7',
    ]),
    'clt-cross-apq_mt': (0, [
        '3a3ddcd2e941702ef25ba841121edbc80d7867a15a172d5652c79da92d9c2869',
    ]),
    'clt-cross-dk': (0, [
        '4659ff7e2a866e2fd5ba5fed785afdfa7d7545300683e056f0c0e0955d24bc8a',
    ]),
    'clt-cross-explicit': (0, [
        '6a0e5fed7526a073ea358dc50a644e83e5b15bb9dec360689fc5a1372fa2b9a6',
    ]),
    'clt-cross-hayes': (0, [
        '1c76f9a892e313068305bd857df3efeeb67704aa038083da45c0ccb728154c4d',
    ]),
    'clt-cross-kawachi': (0, [
        'b7f577f3632c45ac009290f19612e19c91bb0aca29199067597a21067adcc4b7',
    ]),
    'clt-cross-mt': (0, [
        '9295d4c7d6fe5efd5e750d0b2e15c85b0788d8bba0e04741e1e48cac451d5524',
    ]),
    'clt-cross-pearce': (0, [
        '8a4252b1323d211595f20a090d6ef9a7d3ecebf1149eb27ca7b6720751d54afb',
    ]),
    'clt-cross-rho': (0, [
        '19b19ca76f7d1fb2d9f29e12566c72885391c4fbe8bbaaf12283fd61924dea16',
    ]),
    'clt-dk': (0, [
        '373c5f834034b210aa849458091187d55718fa9dfd01c1a9f4081839bdc9e405',
    ]),
    'clt-explicit': (0, [
        '40825a9effab56bc8c9a0c82e6dbdc985f7370e0c6a0c8b08c97dafd402b8466',
    ]),
    'clt-hayes': (0, [
        'df4782d06143a638d01591754e04741e0361e9ddbca1973d9b97a3dba6bc70cd',
    ]),
    'clt-kawachi': (0, [
        '270c7b5dc9f5f85956a765f79f623a31e57c28792a4b6a6b77a5e6c83cb7d1ca',
    ]),
    'clt-mt': (0, [
        'e7dc1249a964c04c09c0699667b4aa8c86b4d1508c0650ca31da50fe53c709e0',
    ]),
    'clt-pearce': (0, [
        '19d7cd4fddc266c0db32c332d40244509abc15c186638900ce37523a3b1a1752',
    ]),
    'clt-rho': (0, [
        'ee6666a257a1a78ea485b637f27612da897196ff6b5066b894e02815c1b05599',
    ]),
    'fluid-csv-apq_dk': (0, [
        '9a9f202dae63b9f61d15be403824a75c14c532415cb5ca57d86c61a05cd6e971',
    ]),
    'fluid-csv-apq_mt': (0, [
        '6377255f4a2cd094637e3857c3ef0f5529ecebe28c733ea6f4c3b636e268264e',
    ]),
    'fluid-csv-dk': (0, [
        '0d47daf8687e6061b31ed349c574394dcd3c27be4283d39bea2442fb9291b339',
    ]),
    'fluid-csv-explicit': (0, [
        '9a9f202dae63b9f61d15be403824a75c14c532415cb5ca57d86c61a05cd6e971',
    ]),
    'fluid-csv-hayes': (0, [
        '3311928d5ec2a28da8484b17ef77f677ae8178fc6745a634f8809e3516a2efeb',
    ]),
    'fluid-csv-kawachi': (0, [
        '57379fa9cf7c8eae2dfc349362aa665394fb78ac6d441a8d0069cf8e6cf44608',
    ]),
    'fluid-csv-mt': (0, [
        '0d47daf8687e6061b31ed349c574394dcd3c27be4283d39bea2442fb9291b339',
    ]),
    'fluid-csv-pearce': (0, [
        'b36e5b1e9fcd9ae7a3c4ae4c6e7a853fc53ff94f6577abaa3691f21823657c23',
    ]),
    'fluid-csv-rho': (0, [
        '0d47daf8687e6061b31ed349c574394dcd3c27be4283d39bea2442fb9291b339',
    ]),
    'fluid-json-apq_dk': (0, [
        '29cfe48bfb9c30f1e8193b1ae31f3ca8e86af4978f23ed4454698ee7288a2bbb',
    ]),
    'fluid-json-apq_dk-201': (0, [
        '0df1f5e49427652ff8d7bbdd514459fcd415be2d48218cb4b5dd89fe67bac5a9',
    ]),
    'fluid-json-apq_mt': (0, [
        'f78b7358310cb7ceb5d471a1efa4df9511b86e20908d693d704552f46062aab7',
    ]),
    'fluid-json-dk': (0, [
        'b2858131a4a64544fa4171870170dc77535f3185ff838ce812c64d14798f21ae',
    ]),
    'fluid-json-explicit': (0, [
        '8d7349f4bfa23b50cb49c133394663ab5d7f988c3b2336be3207533672906177',
    ]),
    'fluid-json-hayes': (0, [
        '97f1be07a0f36e05efec8e98f46ea49710ca679d437707340145b909f4a6abd7',
    ]),
    'fluid-json-kawachi': (0, [
        '6c8580868105e7538556e1fd200914eb7a5ff0ab863c86162c7bc35c84f9a608',
    ]),
    'fluid-json-mt': (0, [
        'b1cc4d87788cf80c39db71dbe5f09189519a826591530207ee3c282a80f0829e',
    ]),
    'fluid-json-pearce': (0, [
        '27825062b4f87e29381b6efe0408aa00aea8b7e16b823681caf9cfbaaeb18afd',
    ]),
    'fluid-json-rho': (0, [
        '13eabb8adc5770a1f2d321c651cdd1f80107663d05cca4908e8fe5f417069c8e',
    ]),
    'fluid-t-max': (0, [
        'a5c06c9817c863252faba96317843e9cdc90f3880a1fbb6686b039feb0cf2496',
    ]),
    'limit-apq_dk': (0, [
        'e90d03f3007aed67d3fd1f85b1e56924be3bebdd3be384e438723d69723057c4',
    ]),
    'limit-apq_mt': (0, [
        '7be1178c0aa806cb11eaef3b164db7d033b39617086bcb327d12ef0184d7c3e6',
    ]),
    'limit-dk': (0, [
        '78ede844037d34aa12b41198b8345166b5234908b512c8642e23dc1e6785741e',
    ]),
    'limit-explicit': (0, [
        '7eca8590eb73cfb136f993ac17ba6015070911e92f1f6fe624a37e8b82853c55',
    ]),
    'limit-hayes': (0, [
        '15b972f6ed49e8c67550da23a07d13c21a73c3076497a211e3d3dd520f43a7ed',
    ]),
    'limit-kawachi': (0, [
        '0316080e2627b14d1c553090f15aa01555f75d522c9d98ee0e3f79e341e4c230',
    ]),
    'limit-mt': (0, [
        'df1f8d7da9cda26b1e43094de417d2ac4ba60933e69200c64de22ee84eef7026',
    ]),
    'limit-pearce': (0, [
        '04203d13d5aefc0f711b048b45682c331f9f9ea04776a963af21b1318c044b64',
    ]),
    'limit-rho': (0, [
        '0e9cf465642bc01eec3fa14e93285f2af58d615d256e51739fbd03b28a980dde',
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
        '40825a9effab56bc8c9a0c82e6dbdc985f7370e0c6a0c8b08c97dafd402b8466',
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
        'e2021bcd6209ba35162beed74f5b641fe836d895e03c58577cc03aef2ea8ded0',
    ]),
    'simulate-few-rows-dk': (0, [
        'b8b66a01d0d887f16ca7b4adc827cf47d46ae8ea4859c8ebeaadcc90213f0167',
    ]),
    'simulate-few-rows-exact-time': (0, [
        '495eb9877326a4b986f0a127d829d569303f1fde937e6bfc4ccc5c99153ce5ad',
        '35727589c5cfa8414e796ded0ff2e92e7215b777e81528b587470c581fd5c97e',
    ]),
    'simulate-jump-chain': (0, [
        '51a7acc04bb4eb2f550c26b08942e385cb0bc4547d353a16563b54d2ce09f696',
        '3b77de0c6ac89ef34fe2a38cbc9e7df35faa2562245a9cb1fe1b1310d3697b62',
    ]),
    'verify-block-exact-time': (0, [
        'bf6602b5d0642edd4ed0d9562ffe6d777f4283a1faba1b5fa5f715fda43fecdc',
    ]),
    'verify-block-jump-chain': (0, [
        '438126681d4735d8c7bebd5466dd6b2f3053d84d9258dd9deb6478f0fdd927fd',
    ]),
    'verify-fail': (1, [
        '0eaba381f12e4bf3865aa35e0c9b9e9ca4d42d8925a05fddc29f72ba65dc2e42',
    ]),
    'verify-mt': (0, [
        '6ee153a12189424711ecbbb2422f2fef4741faec871a78afee2b385f31444316',
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
        if GOLDEN.get(_case) != (_code, _digests):
            print(_case, file=sys.stderr)
    print("}")
