//! Inequality extensions (§7 of the paper).
//!
//! Adding `u != v` atoms changes the complexity landscape drastically
//! (Theorem 7.1: expression complexity becomes NP-hard on a fixed width-one
//! database, data complexity of a fixed sequential query co-NP-hard). The
//! cases the paper identifies as tractable are implemented directly, and
//! both §7 directions now run on the Theorem 5.3 scaffold machinery:
//!
//! * **Query `!=` atoms** expand to `u < v ∨ v < u` per disjunct — an
//!   exponential blow-up in the (fixed) query only, keeping PTIME *data*
//!   complexity ([`eliminate_ne`]). The expanded `[<,<=]` disjunction
//!   runs on the Theorem 5.3 search.
//! * **Database `!=` constraints** restrict the model region instead of
//!   the query: the search runs through a
//!   [`SubScaffold`](indord_core::scaffold::SubScaffold) that blocks the
//!   commits merging a constrained pair, so the explored countermodels
//!   are exactly the separating minimal models. This stays polynomial
//!   per search state — the co-NP-hardness of Theorem 7.1(2) surfaces as
//!   the state space itself growing with the width, guarded by
//!   `state_cap`.
//!
//! Every route has a `*_scaffolded` form taking the session-cached
//! [`DisjunctiveScaffold`]; the plain forms build a one-shot scaffold
//! (and skip even that when the expansion caps force the naive
//! fallback). When a cap trips — too many `!=` orientations, too many
//! expanded disjuncts for the product search, or the state cap — the
//! naive minimal-model oracle decides instead, matching the hardness
//! results: the paper offers no sub-exponential bound for those regimes.

use crate::verdict::MonadicVerdict;
use crate::{disjunctive, naive};
use indord_core::atom::OrderRel;
use indord_core::error::{CoreError, Result};
use indord_core::monadic::{MonadicDatabase, MonadicQuery};
use indord_core::ordgraph::OrderGraph;
use indord_core::scaffold::{DisjunctiveScaffold, SubScaffold};

/// Most expanded `[<,<=]` disjuncts the Theorem 5.3 leg accepts before
/// the naive fallback: the search is exponential in the number of
/// disjuncts (`Π|Φᵢ|`), and beyond a handful enumeration wins — matching
/// the paper, which offers no better bound here (Theorem 7.1 shows the
/// problem is genuinely hard).
pub const EXPANDED_DISJUNCT_CAP: usize = 12;

/// Default cap for `!=` orientation expansions on the plain (non-engine)
/// entry points; [`crate::engine::EntailOptions::expansion_cap`] is the
/// tunable form.
pub const DEFAULT_EXPANSION_CAP: usize = 4096;

/// Expands the `!=` atoms of a monadic query into `2^m` `[<,<=]`-queries
/// (dropping inconsistent orientations). Guarded by `cap`.
pub fn eliminate_ne(q: &MonadicQuery, cap: usize) -> Result<Vec<MonadicQuery>> {
    if q.ne.is_empty() {
        return Ok(vec![q.clone()]);
    }
    let m = q.ne.len();
    if m >= usize::BITS as usize || (1usize << m) > cap {
        return Err(CoreError::CapExceeded {
            what: "!= elimination in monadic query".to_string(),
            limit: cap,
        });
    }
    let base: Vec<(usize, usize, OrderRel)> = q.graph.edges().collect();
    let mut out = Vec::new();
    for mask in 0..(1usize << m) {
        let mut edges = base.clone();
        for (bit, &(a, b)) in q.ne.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                edges.push((a, b, OrderRel::Lt));
            } else {
                edges.push((b, a, OrderRel::Lt));
            }
        }
        // An orientation creating a cycle is inconsistent: drop it.
        if let Ok(g) = OrderGraph::from_dag_edges(q.graph.len(), &edges) {
            out.push(MonadicQuery::new(g, q.labels.clone()));
        }
    }
    Ok(out)
}

/// Expands the `!=` atoms of every disjunct, concatenated; `None` when
/// some disjunct exceeded `cap` — or the total already exceeds what the
/// Theorem 5.3 leg accepts, so finishing the expansion would be wasted
/// work. The caller then falls back to naive enumeration over the
/// original disjuncts either way.
fn expand_disjuncts(disjuncts: &[MonadicQuery], cap: usize) -> Result<Option<Vec<MonadicQuery>>> {
    let mut expanded = Vec::new();
    for q in disjuncts {
        match eliminate_ne(q, cap) {
            Ok(qs) => {
                expanded.extend(qs);
                if expanded.len() > EXPANDED_DISJUNCT_CAP {
                    return Ok(None);
                }
            }
            Err(CoreError::CapExceeded { .. }) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    Ok(Some(expanded))
}

/// Decides `D |= Φ₁ ∨ … ∨ Φₙ` where disjuncts may contain `!=` atoms
/// and the database may carry `!=` constraints: eliminates `!=` per
/// disjunct and runs the Theorem 5.3 engine on the expanded disjunction
/// (bounded by `state_cap` states), restricted to the database's
/// separating region. Builds a one-shot scaffold; repeated-query callers
/// go through a session and [`entails_query_ne_scaffolded`].
pub fn entails_query_ne(
    db: &MonadicDatabase,
    disjuncts: &[MonadicQuery],
    cap: usize,
    state_cap: usize,
) -> Result<MonadicVerdict> {
    let expanded = expand_disjuncts(disjuncts, cap)?;
    entails_expanded(db, disjuncts, expanded.as_deref(), state_cap)
}

/// [`entails_query_ne`] against a prebuilt (typically session-cached)
/// scaffold: the hot path for prepared `!=` queries.
pub fn entails_query_ne_scaffolded(
    db: &MonadicDatabase,
    scaffold: &DisjunctiveScaffold,
    disjuncts: &[MonadicQuery],
    cap: usize,
    state_cap: usize,
) -> Result<MonadicVerdict> {
    let expanded = expand_disjuncts(disjuncts, cap)?;
    entails_expanded_scaffolded(db, scaffold, disjuncts, expanded.as_deref(), state_cap)
}

/// Decides `D |= Φ₁ ∨ … ∨ Φₙ` given an already-computed `!=` expansion
/// of the disjuncts (the prepared-query pipeline caches it at prepare
/// time; pass `None` when the expansion was capped to fall back to naive
/// enumeration over the original disjuncts). Builds a one-shot scaffold
/// exactly when the Theorem 5.3 leg will run.
pub fn entails_expanded(
    db: &MonadicDatabase,
    disjuncts: &[MonadicQuery],
    expanded: Option<&[MonadicQuery]>,
    state_cap: usize,
) -> Result<MonadicVerdict> {
    if !thm53_accepts(expanded.map(<[MonadicQuery]>::len)) {
        return naive::monadic_check(db, disjuncts);
    }
    let scaffold = DisjunctiveScaffold::new(db);
    entails_expanded_scaffolded(db, &scaffold, disjuncts, expanded, state_cap)
}

/// True when the Theorem 5.3 leg will run on an expansion into
/// `expanded` disjuncts (`None`: the expansion was capped). Engines
/// check it before paying for a scaffold.
pub fn thm53_accepts(expanded: Option<usize>) -> bool {
    matches!(expanded, Some(n) if n <= EXPANDED_DISJUNCT_CAP)
}

/// [`entails_expanded`] against a prebuilt scaffold. The scaffold is
/// projected onto the database's `!=`-separating region, so one call
/// handles both §7 directions: expanded query `!=` atoms in `expanded`,
/// database `!=` constraints through the sub-scaffold's blocked commits.
/// The Theorem 5.3 leg honors the caller's `state_cap`, falling back to
/// naive enumeration when it trips.
pub fn entails_expanded_scaffolded(
    db: &MonadicDatabase,
    scaffold: &DisjunctiveScaffold,
    disjuncts: &[MonadicQuery],
    expanded: Option<&[MonadicQuery]>,
    limits: impl Into<disjunctive::SearchLimits>,
) -> Result<MonadicVerdict> {
    entails_expanded_restricted(
        db,
        &SubScaffold::project(scaffold, db),
        disjuncts,
        expanded,
        limits.into(),
    )
}

/// [`entails_expanded_scaffolded`] with an explicit [`SubScaffold`] view
/// — the engine's form, handing through the session-cached projection.
pub fn entails_expanded_restricted(
    db: &MonadicDatabase,
    sub: &SubScaffold<'_>,
    disjuncts: &[MonadicQuery],
    expanded: Option<&[MonadicQuery]>,
    limits: impl Into<disjunctive::SearchLimits>,
) -> Result<MonadicVerdict> {
    let Some(expanded) = expanded else {
        return naive::monadic_check(db, disjuncts);
    };
    if expanded.len() > EXPANDED_DISJUNCT_CAP {
        return naive::monadic_check(db, disjuncts);
    }
    match disjunctive::check_restricted(db, sub, expanded, limits.into()) {
        Ok(v) => Ok(v),
        Err(CoreError::CapExceeded { .. }) => naive::monadic_check(db, disjuncts),
        Err(e) => Err(e),
    }
}

/// Decides entailment when the *database* contains `!=` constraints, by
/// the scaffold-restricted Theorem 5.3 search (query `!=` atoms are
/// expanded first). Exponential in the worst case — necessarily so
/// (Theorem 7.1(2) encodes graph non-3-colourability in exactly this
/// problem), which surfaces as cap-triggered fallbacks to naive
/// enumeration. Builds a one-shot scaffold; sessions route through
/// [`entails_db_ne_scaffolded`].
pub fn entails_db_ne(db: &MonadicDatabase, disjuncts: &[MonadicQuery]) -> Result<MonadicVerdict> {
    entails_query_ne(db, disjuncts, DEFAULT_EXPANSION_CAP, disjunctive::STATE_CAP)
}

/// [`entails_db_ne`] against a prebuilt (typically session-cached)
/// scaffold, with caller-chosen caps.
pub fn entails_db_ne_scaffolded(
    db: &MonadicDatabase,
    scaffold: &DisjunctiveScaffold,
    disjuncts: &[MonadicQuery],
    cap: usize,
    state_cap: usize,
) -> Result<MonadicVerdict> {
    entails_query_ne_scaffolded(db, scaffold, disjuncts, cap, state_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use indord_core::bitset::PredSet;
    use indord_core::flexi::FlexiWord;
    use indord_core::scaffold::SubScaffold;
    use indord_core::sym::PredSym;

    fn ps(ids: &[usize]) -> PredSet {
        ids.iter().map(|&i| PredSym::from_index(i)).collect()
    }

    #[test]
    fn ne_elimination_orientations() {
        let g = OrderGraph::from_dag_edges(2, &[]).unwrap();
        let mut q = MonadicQuery::new(g, vec![ps(&[0]), ps(&[0])]);
        q.ne.push((0, 1));
        let ex = eliminate_ne(&q, 16).unwrap();
        assert_eq!(ex.len(), 2);
        assert!(ex.iter().all(|e| e.ne.is_empty()));
        // An orientation conflicting with an existing edge is dropped.
        let g = OrderGraph::from_dag_edges(2, &[(0, 1, OrderRel::Lt)]).unwrap();
        let mut q = MonadicQuery::new(g, vec![ps(&[0]), ps(&[0])]);
        q.ne.push((0, 1));
        let ex = eliminate_ne(&q, 16).unwrap();
        assert_eq!(ex.len(), 1);
    }

    #[test]
    fn query_ne_semantics() {
        // D: {P} < {P}: two distinct P points. Query: two P's at distinct
        // points — entailed.
        let db = FlexiWord::word(vec![ps(&[0]), ps(&[0])]).to_database();
        let g = OrderGraph::from_dag_edges(2, &[]).unwrap();
        let mut q = MonadicQuery::new(g, vec![ps(&[0]), ps(&[0])]);
        q.ne.push((0, 1));
        assert!(
            entails_query_ne(&db, std::slice::from_ref(&q), 64, disjunctive::STATE_CAP)
                .unwrap()
                .holds()
        );
        // D: single {P} point: not entailed.
        let db1 = FlexiWord::word(vec![ps(&[0])]).to_database();
        let v = entails_query_ne(&db1, &[q], 64, disjunctive::STATE_CAP).unwrap();
        assert!(!v.holds());
        assert_eq!(v.countermodel().unwrap().len(), 1);
    }

    #[test]
    fn db_ne_forces_separation() {
        // D: P(u), P(v), u != v. Query "P < P" (two strict points) holds.
        let g = OrderGraph::from_dag_edges(2, &[]).unwrap();
        let mut db = MonadicDatabase::new(g, vec![ps(&[0]), ps(&[0])]);
        db.ne.push((0, 1));
        let q = MonadicQuery::from_flexiword(&FlexiWord::word(vec![ps(&[0]), ps(&[0])]));
        assert!(entails_db_ne(&db, std::slice::from_ref(&q))
            .unwrap()
            .holds());
        // Without the constraint it fails (u = v model).
        let db2 = MonadicDatabase::new(db.graph.as_ref().clone(), db.labels.clone());
        assert!(!entails_db_ne(&db2, &[q]).unwrap().holds());
    }

    #[test]
    fn db_ne_countermodels_respect_separation() {
        // D: P(u), Q(v), u != v — every model separates u and v, so
        // "there are two strictly ordered points" is certain; dropping
        // the constraint re-admits the merged one-point countermodel.
        let g = OrderGraph::from_dag_edges(2, &[]).unwrap();
        let mut db = MonadicDatabase::new(g, vec![ps(&[0]), ps(&[1])]);
        db.ne.push((0, 1));
        let qg = OrderGraph::from_dag_edges(2, &[(0, 1, OrderRel::Lt)]).unwrap();
        let q = MonadicQuery::new(qg, vec![PredSet::new(), PredSet::new()]);
        assert!(entails_db_ne(&db, std::slice::from_ref(&q))
            .unwrap()
            .holds());
        // The same query without the constraint fails (u = v model).
        let db2 = MonadicDatabase::new(db.graph.as_ref().clone(), db.labels.clone());
        let v2 = entails_db_ne(&db2, &[q]).unwrap();
        assert!(!v2.holds());
        assert_eq!(v2.countermodel().unwrap().len(), 1);
    }

    #[test]
    fn contradictory_db_ne_entails_everything() {
        // u != u (a pair N1 merged) leaves no models at all.
        let g = OrderGraph::from_dag_edges(1, &[]).unwrap();
        let mut db = MonadicDatabase::new(g, vec![ps(&[0])]);
        db.ne.push((0, 0));
        let q = MonadicQuery::new(OrderGraph::from_dag_edges(1, &[]).unwrap(), vec![ps(&[2])]);
        assert!(entails_db_ne(&db, &[q]).unwrap().holds());
    }

    #[test]
    fn scaffolded_route_agrees_with_one_shot_and_naive() {
        // Mixed §7 case: database != plus query != on a warm scaffold.
        let g = OrderGraph::from_dag_edges(3, &[(0, 1, OrderRel::Le)]).unwrap();
        let mut db = MonadicDatabase::new(g, vec![ps(&[0]), ps(&[1]), ps(&[0])]);
        db.ne.push((0, 2));
        let g = OrderGraph::from_dag_edges(2, &[]).unwrap();
        let mut q = MonadicQuery::new(g, vec![ps(&[0]), ps(&[0])]);
        q.ne.push((0, 1));
        let scaffold = DisjunctiveScaffold::new(&db);
        let sub = SubScaffold::project(&scaffold, &db);
        assert!(!sub.is_unrestricted());
        for _ in 0..2 {
            let warm = entails_query_ne_scaffolded(
                &db,
                &scaffold,
                std::slice::from_ref(&q),
                64,
                disjunctive::STATE_CAP,
            )
            .unwrap();
            let one_shot =
                entails_query_ne(&db, std::slice::from_ref(&q), 64, disjunctive::STATE_CAP)
                    .unwrap();
            let oracle = naive::monadic_check(&db, std::slice::from_ref(&q)).unwrap();
            assert_eq!(warm.holds(), one_shot.holds());
            assert_eq!(warm.holds(), oracle.holds());
        }
    }

    #[test]
    fn cap_is_enforced() {
        let g = OrderGraph::from_dag_edges(4, &[]).unwrap();
        let mut q = MonadicQuery::new(g, vec![ps(&[0]); 4]);
        for i in 0..4 {
            for j in (i + 1)..4 {
                q.ne.push((i, j));
            }
        }
        assert!(eliminate_ne(&q, 4).is_err());
        assert!(eliminate_ne(&q, 64).is_ok());
        // A capped expansion still decides (naive fallback), agreeing
        // with the roomy expansion.
        let g = OrderGraph::from_dag_edges(2, &[]).unwrap();
        let db = MonadicDatabase::new(g, vec![ps(&[0]), ps(&[0])]);
        let capped = entails_query_ne(&db, std::slice::from_ref(&q), 4, disjunctive::STATE_CAP)
            .unwrap()
            .holds();
        let roomy = entails_query_ne(&db, std::slice::from_ref(&q), 64, disjunctive::STATE_CAP)
            .unwrap()
            .holds();
        assert_eq!(capped, roomy);
    }

    #[test]
    fn thm53_acceptance_guard() {
        assert!(!thm53_accepts(None));
        assert!(thm53_accepts(Some(EXPANDED_DISJUNCT_CAP)));
        assert!(!thm53_accepts(Some(EXPANDED_DISJUNCT_CAP + 1)));
    }
}
