"""Natural-language-to-CNF pipeline: sentence splitting, translation
client boundary, expression parsing, CNF conversion, simplification."""

from .pipeline import compile_document

__all__ = ["compile_document"]
