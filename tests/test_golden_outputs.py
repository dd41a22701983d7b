"""`color` and `recognize` output pinned byte for byte.

Each entry is the exit code and the SHA-256 of stdout of one CLI call on
a fixed input: random max-degree-3 outerplanar graphs at odd and even
order, relabelled; the fan of `gen --family tf --n 257`, which `color`
declines for its degree; two rejections, K_{2,3} and C_6 with two
crossing chords; and the cycles C_6, C_40 relabelled and C_5, for
`color` only. A change to recognition or to a construction that moves a
single byte of output fails here. The hashes were recorded while the
recognizer still deleted the lowest-id degree-2 vertex first, and before
the odd-order helpers were cached, so they also pin that neither change
moved any output. The cycle hashes were recorded while the peel still
colored even cycles, so they pin that the even construction gives them
the same bytes.

`width` and `color --method exact` are pinned on T_{1,1,1} and T_{1,2,2}
(the parity certificate that names k, l, m), C_5 (the one that names n
and the edge count), the 7-fan (a coloring) and K_5 (every t exhausted).

`fan`, `demo-axenovich` and `gen` read no input; their calls are pinned
by argv alone. Those hashes were recorded while separating triangles
were still found by walking every bounded face.

A call may be a pipe, its stages split at `|`, each stage reading the
one before it. The DOT pins were recorded while `color` and `fan` still
wrote DOT themselves, under a `--format dot` option: `export-dot` on
their JSON gives the same bytes.
"""

import hashlib
import io
import random
import sys
from itertools import combinations

import pytest

from outercolor.cli import main
from outercolor.graphs import (
    gen_cycle,
    gen_random_outerplanar_subcubic,
    gen_triangle_graph,
    gen_triangular_fan,
    make_graph,
    write_edge_list,
)


def _relabelled(g, seed):
    label = list(range(g.n))
    random.Random(seed).shuffle(label)
    return make_graph(g.n, [(label[u], label[v]) for u, v in g.edges])


def _inputs():
    for n in (101, 400, 401, 3000):
        yield f"random-{n}", _relabelled(gen_random_outerplanar_subcubic(n, n), n)
    yield "fan-257", gen_triangular_fan(257)
    yield "k23", make_graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    yield "crossing", make_graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)])
    yield "cycle-6", gen_cycle(6)
    yield "cycle-40", _relabelled(gen_cycle(40), 40)
    yield "cycle-5", gen_cycle(5)
    yield "t111", gen_triangle_graph(1, 1, 1)
    yield "t122", gen_triangle_graph(1, 2, 2)
    yield "fan-7", gen_triangular_fan(7)
    yield "k5", make_graph(5, list(combinations(range(5), 2)))


INPUTS = dict(_inputs())

GOLDEN = {
    ("random-101", "color"): (0, "1fbc6b52a2c5a7a8027a6abc9faf403cb6442f7dd1111d5b609fc99319a58f2a"),
    ("random-101", "recognize"): (0, "ecde9e9fe079bae2e08a70caf8d4a0195c0b2a646fd5be00b59ada44c64a7cce"),
    ("random-400", "color"): (0, "ad90d6a6e331fa3f71b242dd7d36e2ec4a69cda9e9184d77ae93c7125757e8fc"),
    ("random-400", "recognize"): (0, "19f7079a4cfb0990ecae2191e1f3201993b9d19cb0477880aadf821872c4c031"),
    ("random-401", "color"): (0, "b2faa25559dba285fbb0c3cda35db834ae29d9db7310fddff3bbe0dd90007935"),
    ("random-401", "recognize"): (0, "bb0f05c1523af072441bd9de0215efd1d8a19706813bd905614846020b77bd18"),
    ("random-3000", "color"): (0, "9994186a39d681492a8394b13d74242f963030d027f22349b97755da60da7c7b"),
    ("random-3000", "recognize"): (0, "7e8c8a6129a94891ed7ca032389fce02eeee67e6fe6690de06b3f9601b1fba78"),
    ("fan-257", "color"): (1, "3c0b43a29d65785db8092752e3312be057d48a451337f03b574131d8ac77a324"),
    ("fan-257", "recognize"): (0, "07b22116f76a053fb208c37ad2be8433cf7d9174195aa51d301d1cace428bfb2"),
    ("k23", "color"): (1, "1b732a20c770bb42cdb77b1af0c5d2970bebe33c64d4ff16ec2cc17e83dd7c35"),
    ("k23", "recognize"): (1, "6b0d2d780747418495e35257ee314326c31a2287643b9d4c503f86ade9a5c66f"),
    ("crossing", "color"): (1, "8bd8ef22bbbe8042f465a0f6572fbe71872a4d8cfb7a627598563a53fb44d992"),
    ("crossing", "recognize"): (1, "915c95ec3f462b73b8c5000d72830268317eb610b87024c8af514f95ad192a29"),
    ("cycle-6", "color"): (0, "ae293af185684fc456ad76501e6427d7af214f4a0cafb18ac7651b2bebe74c3a"),
    ("cycle-40", "color"): (0, "4e971cb38f57aa1c7b82a2bc8cc2b9eeb3e105bb716908efd93b9ef2c417223f"),
    ("cycle-5", "color"): (1, "7f7ae940a77d5d5e7a8b5f5fa76e84b890c34136999d0ca7c2c1698dd2ef1e7b"),
    ("random-101", "color | export-dot"): (0, "61fbc08f658fd8891a984468491ed78ad33b75fe707f73b756feb59c3888fe58"),
    ("t111", "width"): (1, "2b36bda6970480cf4b6eef33d4d923df01c2f876848abd5f086f482d0d22be19"),
    ("t122", "width"): (1, "c7dc4f930e7283b97dfafd497e4f7677b12f30274c185e01fff96093408e33eb"),
    ("cycle-5", "width"): (1, "e0780cc9a14873cb313be178b320b80d2b71606c0b70067d906853b2c065df6d"),
    ("fan-7", "width"): (0, "ef47e2a6bd10454020ba9c0608e01d324e35e599b2f3b506f0f16c35fd9edec4"),
    ("k5", "width"): (1, "0cde22c50370565d9187e22259b27e66f2edd0d871c23c26e87316061cb8504f"),
    ("fan-7", "color --method exact"): (0, "ed03057de61c2cadc07f4dfb569fda950ccb7f0d2bc2f4e70927d29124f328a3"),
    ("t111", "color --method exact"): (1, "2b36bda6970480cf4b6eef33d4d923df01c2f876848abd5f086f482d0d22be19"),
    ("cycle-6", "color --method exact --t 3"): (0, "ab4684c5ffad146ca42d5c52d216dc339c9da31d571d4a05d39521c7398af6ca"),
}


def _run(argv, text, capsys, monkeypatch):
    """Exit code of the last stage and the SHA-256 of its stdout."""
    code = None
    for stage in " ".join(argv).split(" | "):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(stage.split())
        text = capsys.readouterr().out
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, command", sorted(GOLDEN))
def test_output_matches_golden(name, command, capsys, monkeypatch):
    text = write_edge_list(INPUTS[name])
    assert _run([command], text, capsys, monkeypatch) == GOLDEN[name, command]


GENERATED = {
    ("fan", "--n", "3"): (0, "04b01baae18abe91e746d3d9d940e36152a06e25f6ae0d4274e11b2a574b199c"),
    ("fan", "--n", "8"): (0, "b16237e87570fec06542465dea25544d1823f209ce00fb593dcc30f6d9b59079"),
    ("fan", "--n", "9"): (0, "065a268747496856ca28ded0af55013a26e08206f69b6b22f7437f234db8eaef"),
    ("fan", "--n", "64"): (0, "a0bcbf61d45b6b91d6406ca288ee3e906b6e24ae3a3fdbf62e02b8f3534aae9d"),
    ("fan", "--n", "257"): (0, "601a14cfe328608b8ffa76afda5f0b2997d5f0121dc1750d239e97e8336282c9"),
    ("fan", "--n", "9", "|", "export-dot"): (0, "90c65ad32ba69bcb9e6af8d6c190ca36e8e540e5aebbe9b068ebf4ea9418aba9"),
    ("demo-axenovich", "--n", "5"): (0, "53ee731af10230c5ef52a5a650b3e67312f395c90406233892a8297c6b4131e8"),
    ("demo-axenovich", "--n", "64"): (0, "d4038076efc0bd977f68f0f2cef97bf9f7a8a3d41e978e15182d7dc7f1352e54"),
    ("demo-axenovich", "--n", "257"): (0, "e1d3c68ec36ec9e3aef971c55a2295b9692b76480b0bf7ca4d15149747aaa4bd"),
    ("gen", "--family", "tklm", "--k", "2", "--l", "3", "--m", "1"): (0, "a7faf58455d2e2f2fefeca7b4c3bda36c28404d35dcc636e471b81ca47ab0b07"),
    ("gen", "--family", "tf", "--n", "9"): (0, "dc07d8b9563f734246d81beb98ff16503d5c8fb47b40b02d5905f6dde06cc676"),
}


@pytest.mark.parametrize("argv", sorted(GENERATED), ids=" ".join)
def test_generated_output_matches_golden(argv, capsys, monkeypatch):
    assert _run(argv, "", capsys, monkeypatch) == GENERATED[argv]
