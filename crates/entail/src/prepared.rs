//! Prepared queries: everything about a query that does not depend on the
//! database contents, compiled once and reused across evaluations.
//!
//! Van der Meyden's algorithms split cleanly into a per-database phase
//! (normalization, the labelled-dag view — cached by
//! [`indord_core::session::Session`]) and a per-query phase: DNF
//! disjuncts, the object/order split of §4, flexi-word conversion of
//! sequential disjuncts, the `Paths(Φ)` decomposition of Lemma 4.1, and
//! the `!=` orientation expansion of §7. A [`PreparedQuery`] captures all
//! of that at [`crate::Engine::prepare`] time, so
//! [`crate::Engine::entails_prepared`] does no query recompilation.
//!
//! The route itself is not stored: which disjuncts survive their object
//! parts and whether the database carries `!=` are known only per
//! evaluation, so `route::choose` picks the route from these
//! artifacts each time. [`PreparedQuery::plan`] is that same choice on a
//! database where every disjunct survives and no `!=` is present.

use crate::engine::Strategy;
use crate::ineq;
use crate::route::{self, Route};
use indord_core::error::Result;
use indord_core::flexi::FlexiWord;
use indord_core::monadic::{split_object_part, MonadicQuery, ObjectPart};
use indord_core::query::DnfQuery;
use indord_core::sym::Vocabulary;
use std::borrow::Cow;

/// A conjunctive disjunct with at most this many decomposition paths
/// routes to Lemma 4.1 (and gets its `Paths(Φ)` precomputed); beyond it
/// the Theorem 4.7 product search wins and no path cache is stored.
pub(crate) const PATHS_THRESHOLD: u128 = 32;

/// The §7 `!=`-orientation expansion state of one disjunct.
#[derive(Debug, Clone)]
pub(crate) enum NeExpansion {
    /// The disjunct has no `!=` atoms: it is its own expansion, no copy
    /// is stored (the common case).
    Unneeded,
    /// Precomputed `[<,<=]` orientations.
    Expanded(Vec<MonadicQuery>),
    /// The expansion exceeded the cap; the evaluator falls back to naive
    /// enumeration, as the unprepared pipeline would.
    Capped,
}

/// The §7 `!=` expansion artifacts of a whole plan, computed lazily on
/// the first evaluation that actually reaches a `!=` route — either
/// query `!=` atoms (expanded here) or database `!=` constraints (the
/// evaluator then runs these expansions, trivial when no disjunct has
/// `!=` atoms, on the session's sub-scaffold-restricted search).
#[derive(Debug, Clone)]
pub(crate) struct NePlan {
    /// Per-disjunct expansions, parallel to the plan's `orders`.
    pub(crate) per_disjunct: Vec<NeExpansion>,
    /// Concatenation across all disjuncts; `None` when any was capped.
    pub(crate) full: Option<Vec<MonadicQuery>>,
}

impl NePlan {
    fn compute(orders: &[MonadicQuery], cap: usize) -> Self {
        let per_disjunct: Vec<NeExpansion> = orders
            .iter()
            .map(|order| {
                if order.ne.is_empty() {
                    NeExpansion::Unneeded
                } else {
                    match ineq::eliminate_ne(order, cap) {
                        Ok(qs) => NeExpansion::Expanded(qs),
                        Err(_) => NeExpansion::Capped,
                    }
                }
            })
            .collect();
        let mut full = Vec::new();
        let mut capped = false;
        for (e, order) in per_disjunct.iter().zip(orders) {
            match e {
                NeExpansion::Unneeded => full.push(order.clone()),
                NeExpansion::Expanded(qs) => full.extend(qs.iter().cloned()),
                NeExpansion::Capped => {
                    capped = true;
                    break;
                }
            }
        }
        NePlan {
            per_disjunct,
            full: (!capped).then_some(full),
        }
    }

    /// How many `[<,<=]` disjuncts the survivors expand into; `None`
    /// when one of them exceeded the expansion cap.
    pub(crate) fn expanded_len(&self, survivors: &[usize]) -> Option<usize> {
        survivors
            .iter()
            .map(|&i| match &self.per_disjunct[i] {
                NeExpansion::Unneeded => Some(1),
                NeExpansion::Expanded(qs) => Some(qs.len()),
                NeExpansion::Capped => None,
            })
            .sum()
    }
}

/// The compiled artifacts of one disjunct's order part (the order part
/// itself lives in [`MonadicPlan::orders`] at the same index, its object
/// part in [`MonadicPlan::objects`]).
#[derive(Debug, Clone)]
pub struct PreparedDisjunct {
    /// Flexi-word form, when the order part is sequential.
    pub(crate) flexi: Option<FlexiWord>,
    /// `Paths(Φ)`, precomputed for disjuncts routing to Lemma 4.1.
    pub(crate) paths: Option<Vec<FlexiWord>>,
    /// Number of decomposition paths (computed by DP, never enumerated).
    pub(crate) path_count: u128,
    /// The route this disjunct takes under the automatic strategy when
    /// it is the only survivor on a database without `!=`: `Seq`,
    /// `Paths` or `BoundedWidth`, by its compiled shape.
    pub(crate) route: Route,
}

impl PreparedDisjunct {
    /// Compiles the artifacts of one order part.
    pub(crate) fn new(order: &MonadicQuery) -> Self {
        let flexi = if order.is_sequential() {
            order.to_flexiword().ok()
        } else {
            None
        };
        let path_count = order.path_count();
        // Cache the decomposition only where the evaluator reads it:
        // sequential disjuncts use the flexi-word, and beyond the
        // threshold both Auto and the pinned Paths strategy enumerate
        // lazily (respectively use Thm 4.7).
        let paths =
            (flexi.is_none() && path_count <= PATHS_THRESHOLD).then(|| order.paths().collect());
        let route = if flexi.is_some() {
            Route::Seq
        } else if path_count <= PATHS_THRESHOLD {
            Route::Paths
        } else {
            Route::BoundedWidth
        };
        PreparedDisjunct {
            flexi,
            paths,
            path_count,
            route,
        }
    }

    /// The route this disjunct's compiled shape takes on its own.
    pub fn route(&self) -> Route {
        self.route
    }

    /// The number of Lemma 4.1 decomposition paths.
    pub fn path_count(&self) -> u128 {
        self.path_count
    }
}

/// The compiled monadic pipeline of a query. The object/order split is
/// done at prepare time (it validates the query); the per-disjunct
/// artifacts and `!=` expansions are compiled lazily on the first
/// evaluation that actually takes the monadic route — a query evaluated
/// only against n-ary databases never pays for them.
#[derive(Debug, Clone)]
pub(crate) struct MonadicPlan {
    /// The order parts, in disjunct order (evaluated directly off this
    /// slice in the common all-disjuncts-survive case).
    pub(crate) orders: Vec<MonadicQuery>,
    /// Object parts (§4), parallel to `orders`.
    pub(crate) objects: Vec<ObjectPart>,
    /// Cap for `!=` expansions, from the preparing engine.
    cap: usize,
    /// Lazily-compiled per-disjunct artifacts, parallel to `orders`.
    compiled: std::sync::OnceLock<Vec<PreparedDisjunct>>,
    /// Lazily-computed §7 expansion plan (see [`NePlan`]).
    ne: std::sync::OnceLock<NePlan>,
}

impl MonadicPlan {
    pub(crate) fn new(orders: Vec<MonadicQuery>, objects: Vec<ObjectPart>, cap: usize) -> Self {
        assert_eq!(orders.len(), objects.len());
        MonadicPlan {
            orders,
            objects,
            cap,
            compiled: std::sync::OnceLock::new(),
            ne: std::sync::OnceLock::new(),
        }
    }

    /// The per-disjunct artifacts, compiled on first use and cached for
    /// the lifetime of the prepared query.
    pub(crate) fn compiled(&self) -> &[PreparedDisjunct] {
        self.compiled
            .get_or_init(|| self.orders.iter().map(PreparedDisjunct::new).collect())
    }

    /// The `!=` expansion artifacts, computed on first use and cached for
    /// the lifetime of the prepared query.
    pub(crate) fn ne_plan(&self) -> &NePlan {
        self.ne
            .get_or_init(|| NePlan::compute(&self.orders, self.cap))
    }

    /// The order parts of the surviving disjuncts (borrowed when every
    /// disjunct survives).
    pub(crate) fn survivor_orders(&self, survivors: &[usize]) -> Cow<'_, [MonadicQuery]> {
        if survivors.len() == self.orders.len() {
            return Cow::Borrowed(&self.orders);
        }
        Cow::Owned(survivors.iter().map(|&i| self.orders[i].clone()).collect())
    }

    /// The `[<,<=]` expansions of the surviving disjuncts, for an
    /// evaluation routed to §7 (so none of them was capped).
    pub(crate) fn survivor_expansions(&self, survivors: &[usize]) -> Cow<'_, [MonadicQuery]> {
        let ne = self.ne_plan();
        if let (true, Some(full)) = (survivors.len() == self.orders.len(), &ne.full) {
            return Cow::Borrowed(full);
        }
        let expansion = |i: usize| match &ne.per_disjunct[i] {
            NeExpansion::Unneeded => std::slice::from_ref(&self.orders[i]),
            NeExpansion::Expanded(qs) => qs.as_slice(),
            NeExpansion::Capped => &[],
        };
        Cow::Owned(
            survivors
                .iter()
                .flat_map(|&i| expansion(i))
                .cloned()
                .collect(),
        )
    }
}

/// A query compiled against a vocabulary and strategy: reusable across
/// any number of databases/sessions sharing that vocabulary.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The original query (the naive fallback consumes it directly).
    pub(crate) query: DnfQuery,
    /// Strategy pinned at prepare time.
    pub(crate) strategy: Strategy,
    /// The monadic pipeline, when every query predicate is monadic (and
    /// the strategy is not pinned to naive).
    pub(crate) monadic: Option<MonadicPlan>,
}

impl PreparedQuery {
    /// Compiles `query`. Exposed through [`crate::Engine::prepare`].
    pub(crate) fn compile(
        voc: &Vocabulary,
        query: &DnfQuery,
        strategy: Strategy,
        expansion_cap: usize,
    ) -> Result<PreparedQuery> {
        let monadic = if strategy != Strategy::Naive && monadic_applicable(voc, query) {
            let mut orders = Vec::with_capacity(query.disjuncts.len());
            let mut objects = Vec::with_capacity(query.disjuncts.len());
            for cq in &query.disjuncts {
                let (object, order) = split_object_part(voc, cq)?;
                orders.push(order);
                objects.push(object);
            }
            Some(MonadicPlan::new(orders, objects, expansion_cap))
        } else {
            None
        };
        Ok(PreparedQuery {
            query: query.clone(),
            strategy,
            monadic,
        })
    }

    /// The query this was compiled from.
    pub fn query(&self) -> &DnfQuery {
        &self.query
    }

    /// The strategy pinned at prepare time.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The route `route::choose` picks when every disjunct survives
    /// on a database without `!=` (the route against a given database
    /// is [`crate::Engine::explain_route`]). Errors exactly where such
    /// an evaluation would, for a pinned strategy the query does not
    /// fit.
    pub fn plan(&self) -> Result<Route> {
        let all: Option<Vec<usize>> = self.monadic.as_ref().map(|p| (0..p.orders.len()).collect());
        route::choose(self, all.as_deref(), false)
    }

    /// True when the monadic pipeline applies.
    pub fn is_monadic(&self) -> bool {
        self.monadic.is_some()
    }

    /// The compiled disjuncts of the monadic pipeline (empty for n-ary
    /// queries); forces the lazy per-disjunct compilation.
    pub fn disjuncts(&self) -> &[PreparedDisjunct] {
        self.monadic.as_ref().map(|p| p.compiled()).unwrap_or(&[])
    }

    /// The §7 `!=` expansion cap this query was prepared under (`None`
    /// for n-ary queries — the naive route has no expansions to cap).
    pub fn expansion_cap(&self) -> Option<usize> {
        self.monadic.as_ref().map(|p| p.cap)
    }

    /// Static per-disjunct introspection for `EXPLAIN`: forces the lazy
    /// per-disjunct and `!=` compilation, exactly as the first
    /// evaluation would, but runs nothing against a database.
    pub fn explain_disjuncts(&self) -> Vec<DisjunctExplain> {
        let Some(plan) = &self.monadic else {
            return Vec::new();
        };
        let ne = plan.ne_plan();
        plan.compiled()
            .iter()
            .zip(&plan.orders)
            .zip(&plan.objects)
            .zip(&ne.per_disjunct)
            .map(|(((d, order), object), exp)| DisjunctExplain {
                route: d.route,
                path_count: d.path_count,
                order_vars: order.labels.len(),
                ne_atoms: order.ne.len(),
                object_vars: object.requirements.len(),
                ne_expansion: match exp {
                    NeExpansion::Unneeded => NeExplain::Unneeded,
                    NeExpansion::Expanded(qs) => NeExplain::Expanded(qs.len()),
                    NeExpansion::Capped => NeExplain::Capped,
                },
            })
            .collect()
    }
}

/// Wire-friendly summary of one compiled disjunct (see
/// [`PreparedQuery::explain_disjuncts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisjunctExplain {
    /// The route this disjunct's compiled shape takes on its own (see
    /// [`PreparedDisjunct::route`]).
    pub route: Route,
    /// Lemma 4.1 decomposition paths (computed by DP, never enumerated).
    pub path_count: u128,
    /// Order variables of the disjunct's order part.
    pub order_vars: usize,
    /// `!=` atoms in the order part.
    pub ne_atoms: usize,
    /// Object variables split off by §4.
    pub object_vars: usize,
    /// The §7 `!=` orientation-expansion outcome.
    pub ne_expansion: NeExplain,
}

/// The `!=` expansion outcome of one disjunct, introspectable for
/// `EXPLAIN` (the internal [`NeExpansion`] carries the expansions
/// themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeExplain {
    /// No `!=` atoms: the disjunct is its own expansion.
    Unneeded,
    /// Expanded into this many `[<,<=]` orientations.
    Expanded(usize),
    /// The expansion exceeded the cap; evaluation falls back to naive
    /// enumeration.
    Capped,
}

impl NeExplain {
    /// Stable label for `EXPLAIN` output.
    pub fn describe(self) -> String {
        match self {
            NeExplain::Unneeded => "unneeded".to_string(),
            NeExplain::Expanded(n) => format!("expanded({n})"),
            NeExplain::Capped => "capped".to_string(),
        }
    }
}

/// True when every proper atom of the query is monadic (order- or
/// object-sorted), i.e. the §4 pipeline applies.
pub(crate) fn monadic_applicable(voc: &Vocabulary, query: &DnfQuery) -> bool {
    query.disjuncts.iter().all(|cq| {
        cq.proper.iter().all(|a| {
            let sig = voc.signature(a.pred);
            sig.is_monadic_order() || sig.is_monadic_object()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use indord_core::parse::{parse_database, parse_query};

    #[test]
    fn sequential_disjunct_compiles_to_seq_plan() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        assert!(pq.is_monadic());
        assert_eq!(pq.plan().unwrap(), Route::Seq);
        let d = &pq.disjuncts()[0];
        assert!(d.flexi.is_some());
        assert_eq!(d.path_count(), 1);
        // Sequential disjuncts evaluate off the flexi-word; no redundant
        // path cache is stored.
        assert!(d.paths.is_none());
    }

    #[test]
    fn paths_cache_present_exactly_for_paths_plan() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); Q(v); R(w); u < v; u < w;").unwrap();
        let q = parse_query(&mut voc, "exists a b c. P(a) & a < b & Q(b) & a < c & R(c)").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        let d = &pq.disjuncts()[0];
        assert_eq!(d.route(), Route::Paths);
        assert_eq!(d.paths.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn branching_disjunct_routes_to_paths() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); Q(v); R(w); u < v; u < w;").unwrap();
        let q = parse_query(&mut voc, "exists a b c. P(a) & a < b & Q(b) & a < c & R(c)").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        assert_eq!(pq.plan().unwrap(), Route::Paths);
        assert_eq!(pq.disjuncts()[0].path_count(), 2);
    }

    #[test]
    fn disjunction_routes_to_disjunctive() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "(exists s. P(s)) | (exists s. Q(s))").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        assert_eq!(pq.plan().unwrap(), Route::Disjunctive);
        assert_eq!(pq.disjuncts().len(), 2);
    }

    #[test]
    fn nary_query_routes_to_naive() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "R(u, v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. R(s, t) & s < t").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        assert!(!pq.is_monadic());
        assert_eq!(pq.plan().unwrap(), Route::Naive);
        assert!(pq.disjuncts().is_empty());
    }

    #[test]
    fn plan_is_the_chosen_route() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & P(t) & s != t").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        // Query `!=` atoms take the §7 route; the disjunct keeps its shape.
        assert_eq!(pq.plan().unwrap(), Route::Ne);
        assert_eq!(pq.disjuncts()[0].route(), Route::Paths);
        // A pinned strategy the query does not fit errs, as it would on
        // evaluation.
        let pinned = PreparedQuery::compile(&voc, &q, Strategy::Paths, 4096).unwrap();
        assert!(pinned.plan().is_err());
        assert_eq!(
            PreparedQuery::compile(&voc, &DnfQuery::default(), Strategy::Auto, 4096)
                .unwrap()
                .plan()
                .unwrap(),
            Route::Empty
        );
    }

    #[test]
    fn ne_expansion_computed_lazily_then_cached() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); P(v); u <= v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & P(t) & s != t").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        let plan = pq.monadic.as_ref().unwrap();
        assert!(plan.ne.get().is_none(), "expansion must be lazy");
        let ne = plan.ne_plan();
        match &ne.per_disjunct[0] {
            NeExpansion::Expanded(qs) => assert_eq!(qs.len(), 2),
            other => panic!("expected computed expansion, got {other:?}"),
        }
        assert_eq!(ne.full.as_ref().unwrap().len(), 2);
        assert!(plan.ne.get().is_some(), "expansion cached after first use");
    }

    #[test]
    fn ne_free_disjunct_stores_no_expansion() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        let pq = PreparedQuery::compile(&voc, &q, Strategy::Auto, 4096).unwrap();
        let plan = pq.monadic.as_ref().unwrap();
        assert!(matches!(
            plan.ne_plan().per_disjunct[0],
            NeExpansion::Unneeded
        ));
    }

    #[test]
    fn object_facts_keep_monadic_pipeline_reachable() {
        // The §4 split: a database with definite object facts must still
        // be viewable as a monadic order dag (object facts go through
        // the profile side), so the prepared pipeline can fire.
        use indord_core::monadic::MonadicDatabase;
        let mut voc = Vocabulary::new();
        let db = parse_database(
            &mut voc,
            "pred Emp(obj); pred P(ord); pred Q(ord); Emp(alice); P(u); Q(v); u < v;",
        )
        .unwrap();
        let nd = db.normalize().unwrap();
        let mdb = MonadicDatabase::from_normal(&voc, &nd).expect("object facts are skipped");
        assert_eq!(mdb.len(), 2);
    }
}
