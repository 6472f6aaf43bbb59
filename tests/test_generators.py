import hashlib

import pytest

from satkit.generators import generate_dataset

# SHA-256 of each file of generate_dataset(dir, 3, 20, 91, seed=0, kind):
# the byte streams of both generators, rng call order included.
DATASET_SHA256 = {
    "planted": [
        "258c809228932f8a705351dc6b9e25db85f704c2bb62dc0fa78bd9ee477470b6",
        "a40cfe3942079590dd9b107628784103ce2b57f33534b84cc0d5a49fc2a6f640",
        "2db1a24f4639698e8ac14a18fac9ffd2e3ccd7d71508bfac84d7a21685547310",
    ],
    "uniform": [
        "0755ccb22001642cd236f023de48621e5bfb64ced05baf8d2febf34a8324b442",
        "78b1bd6e57805bc4820091ff5bbb5e9745c412db93a379172113d0504fd49404",
        "5b785b832c430686a60886059b32f88b8dbff4773cdb9bd8d644dac799ac4498",
    ],
}


@pytest.mark.parametrize("kind", sorted(DATASET_SHA256))
def test_seed_0_dataset_bytes_are_pinned(tmp_path, kind):
    paths = generate_dataset(tmp_path, count=3, num_vars=20, num_clauses=91, seed=0, kind=kind)
    assert [p.name for p in paths] == ["inst_000.cnf", "inst_001.cnf", "inst_002.cnf"]
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == DATASET_SHA256[kind]
