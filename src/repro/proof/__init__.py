"""Proof production and checking: the solver's trust layer.

``sat`` answers are validated in-engine by evaluating the model against
every live assertion; this package closes the asymmetry for ``unsat``:

* :mod:`repro.proof.log` — the DRAT-style clause proof the CDCL core
  emits while it searches: input clauses, theory lemmas (with plugin
  provenance), learned clauses as RUP additions, deletions, and a
  concluding clause per ``unsat`` answer (the empty clause, or the
  negation of the failed-assumption core when the check ran under
  assumptions).  Clauses are numbered by position, and every RUP step
  carries *hints*: the ids of the clauses its derivation used, in the
  order they become unit (LRAT-style, after Cruz-Filipe, Heule, Hunt,
  Kaufmann and Schneider-Kamp, CADE 2017).  Level-0 literals are named
  by unit clauses, derived on demand, and the concluding steps are
  hinted too.
* :mod:`repro.proof.checker` — an **independent** forward RUP/DRAT
  checker that shares no code with the solver's propagation loop: it
  verifies a hinted step by walking its hints alone, with no search and
  no top-level units, and rejects the step if a hint is wrong; a step
  without hints is checked by its own counting-based unit propagation,
  built the first time such a step needs it.  It accepts only when
  every RUP addition is derivable and the conclusion follows.

The trusted base mirrors the SAT-competition convention: input clauses
(the Tseitin encoding of the simplified assertions) are axioms, and
theory lemmas are axioms *recorded with provenance* — each lemma step
names the plugin whose explanation produced it, so the lemma surface is
auditable even though the checker does not re-derive theory reasoning.
Everything else — every learned clause and the final conclusion — must
pass reverse-unit-propagation over the accumulated formula.  Hints are
not part of the trusted base: they only tell the checker where to look.
"""

from .checker import ProofCheckResult, check_proof
from .log import Proof, ProofLog, ProofStep

__all__ = [
    "Proof",
    "ProofLog",
    "ProofStep",
    "ProofCheckResult",
    "check_proof",
]
