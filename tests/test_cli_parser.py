import gc

from latpoly.cli import build_parser, main


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_a_repeated_invocation_leaves_no_reference_cycles(capsys, chain3_file):
    # an argparse parser holds reference cycles, so a parser built on every
    # call left them all behind; the first call fills the caches
    argv = ["check", "--lattice", str(chain3_file), "--arity", "2", "--term", "x1 & x2"]
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert main(argv) == 0
            garbage = gc.collect()
        assert garbage == 0
    finally:
        gc.enable()
    capsys.readouterr()
