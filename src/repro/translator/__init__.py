"""The ParADE OpenMP translator (§4).

A source-to-source translator for a C subset with OpenMP 1.0 pragmas,
mirroring the paper's Omni-derived design: lex → parse into an AST that
carries the OpenMP directives → analyse (variable scoping, shared-data
footprint, lexical analyzability of critical sections) → reconstruct C
with the directives replaced by runtime API calls.

Two backends, one class per translation, implement the comparison of
Figures 2 and 3:

* :class:`SdsmBackend`  — the conventional translation: every
  synchronisation directive becomes a distributed SDSM lock
  (``km_lock``/``km_unlock``) plus barriers; it also holds the region
  outlining both translations share;
* :class:`ParadeBackend` — ``SdsmBackend``'s subclass for the hybrid
  translation: pthread locks for intra-node exclusion and collectives
  (``parade_allreduce`` / ``parade_bcast``) for inter-node
  synchronisation, on the rows :func:`repro.runtime.hybrid_row` picks
  (analyzable, small shared footprint); any other directive falls back
  to the inherited conventional row.
"""

from repro.translator.tokens import Token, TokenType
from repro.translator.lexer import Lexer, tokenize, LexError
from repro.translator import c_ast
from repro.translator.parser import Parser, parse, ParseError
from repro.translator.analysis import (
    analyze_region,
    body_is_lexically_analyzable,
    shared_footprint_bytes,
    find_update_statement,
    sizeof_type,
)
from repro.translator.codegen import CWriter
from repro.translator.backends import ParadeBackend, SdsmBackend, translate

__all__ = [
    "Token",
    "TokenType",
    "Lexer",
    "tokenize",
    "LexError",
    "c_ast",
    "Parser",
    "parse",
    "ParseError",
    "analyze_region",
    "body_is_lexically_analyzable",
    "shared_footprint_bytes",
    "find_update_statement",
    "sizeof_type",
    "CWriter",
    "ParadeBackend",
    "SdsmBackend",
    "translate",
]
