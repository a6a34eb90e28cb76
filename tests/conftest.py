import pathlib

import pytest

from totality.checker import Config, analyze_source
from totality.surface import desugar, parse_program, validate_restrictions
from totality.typecheck import DeclEnv, annotate_group

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_source(name: str) -> str:
    return (CORPUS / name).read_text()


def analyze_corpus(name: str, bound_b: int, bound_d: int):
    return analyze_source(
        corpus_source(name), Config(bound_b=bound_b, bound_d=bound_d))


def annotated_groups(name: str):
    """Typed and priority-annotated groups of a corpus file."""
    program = desugar(parse_program(corpus_source(name)))
    violations, _ = validate_restrictions(program)
    assert not violations, violations
    env = DeclEnv(program.decls)
    schemes: dict = {}
    return [(annotate_group(env, schemes, group.defs), env)
            for group in program.groups]


@pytest.fixture(scope="session")
def oracle():
    from reference.oracle import OrderOracle

    return OrderOracle()


@pytest.fixture(scope="session")
def small_oracle():
    from reference.oracle import OrderOracle, UniverseConfig

    return OrderOracle(UniverseConfig(constructors=("A",)))
