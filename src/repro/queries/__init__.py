"""The paper's concrete programs and problems, with direct Python baselines.

* :mod:`repro.queries.agap` — alternating reachability (Definition 3.4,
  Lemma 3.6), the P-completeness witness of Theorem 3.10;
* :mod:`repro.queries.transitive_closure` — TC and DTC in SRL (Section 4);
* :mod:`repro.queries.arithmetic_basrl` — Proposition 4.5 / Lemma 4.6
  arithmetic in BASRL;
* :mod:`repro.queries.permutations` — iterated permutation multiplication
  IM_Sn (Definition 4.8, Lemma 4.10);
* :mod:`repro.queries.powerset` — Example 3.12's set-height-2 powerset and
  the LRL doubling list;
* :mod:`repro.queries.counting` — EVEN and cardinality parity (Section 7);
* :mod:`repro.queries.relational` — a company-database workload exercising
  the Fact 2.4 relational operators.
"""

from .agap import (
    agap_baseline,
    agap_database,
    agap_program,
    apath_baseline,
    apath_program,
)
from .arithmetic_basrl import (
    arithmetic_database,
    arithmetic_program,
    evaluate_arithmetic,
    rank_of,
)
from .counting import (
    cardinality_parity_program,
    even_baseline,
    even_database,
    even_program,
    even_via_counting,
)
from .permutations import (
    compose_permutations_baseline,
    im_baseline,
    im_database,
    im_program,
    ip_program,
    run_iterated_product,
)
from .powerset import (
    doubling_list_program,
    powerset_baseline,
    powerset_database,
    powerset_program,
)
from .relational import (
    CompanyData,
    build_company_data,
    colleague_pairs_program,
    company_database,
    departments_fully_senior_program,
    employees_in_department_program,
    first_employee_is_senior_program,
)
from .transitive_closure import (
    deterministic_reachability_program,
    deterministic_reachable_baseline,
    dtc_program,
    graph_database,
    reachability_program,
    reachable_baseline,
    tc_program,
    transitive_closure_baseline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
