"""Every flag a subcommand declares is read by its handler.

A flag the handler never reads would be accepted and then do nothing, so
this walks each handler with ``ast``: for every option of the subcommand,
except --help and --config (read in ``main``), the handler's source must
read ``args.<dest>``.
"""

import argparse
import ast
import inspect
import textwrap

import pytest

from lie_split.cli import build_parser


def _subcommands(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _unread_flags(subparser):
    handler = subparser.get_default("handler")
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    return sorted(action.dest for action in subparser._actions
                  if action.dest not in ("help", "config")
                  and action.dest not in read)


SUBCOMMANDS = _subcommands(build_parser())


def test_every_subcommand_has_a_handler():
    assert len(SUBCOMMANDS) == 8
    assert all(callable(p.get_default("handler"))
               for p in SUBCOMMANDS.values())


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_handler_reads_every_flag(name):
    unread = _unread_flags(SUBCOMMANDS[name])
    assert not unread, f"{name}: flags never read: {', '.join(unread)}"


def test_detector_flags_an_unread_option():
    def handler(args):
        return args.used

    parser = argparse.ArgumentParser()
    parser.set_defaults(handler=handler)
    parser.add_argument("--used")
    parser.add_argument("--ignored")
    parser.add_argument("--config")
    assert _unread_flags(parser) == ["ignored"]
