"""Local-unitary invariants of stabilizer codes over GF(2).

The library computes the complete tree-indexed family of local-unitary
invariant dimensions of a stabilizer code purely in the binary symplectic
formalism, and ships an exact dense-operator oracle that certifies the
binary computation at desk scale.

Import from the modules: `stabilizer` (codes and graphs), `trees`,
`invariants` (the engine), `oracle`, `gf2` and `errors`.  Importing the
package loads none of them.
"""

__version__ = "0.1.0"
