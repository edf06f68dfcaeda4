//! The strategy-selecting entailment facade.
//!
//! The engine works in two phases, mirroring the paper's separation of
//! per-query compilation from per-database normalization:
//!
//! * [`Engine::prepare`] compiles a [`DnfQuery`] into a
//!   [`PreparedQuery`]: DNF disjuncts, object/order splits (§4),
//!   flexi-words, path decompositions (Lemma 4.1) and `!=` expansion
//!   plans (§7).
//! * [`Engine::entails_prepared`] evaluates a prepared query against a
//!   [`Session`], whose normalized and monadic views are cached across
//!   calls — a hot session performs no re-normalization and a prepared
//!   query no recompilation. [`Engine::entails_batch`] amortizes one
//!   session across a whole batch.
//!
//! [`Engine::entails`] remains as the one-shot compatibility wrapper:
//! prepare, normalize, evaluate, discard. All paths share one executor,
//! so prepared and unprepared evaluation agree by construction:
//!
//! 1. the database is normalized (N1/N2, consistency);
//! 2. when every predicate in play is monadic, the object part of each
//!    disjunct (§4) is evaluated against the definite facts;
//! 3. `route::choose` picks the route from the strategy, the compiled
//!    query, the surviving disjuncts and the database's `!=` constraints
//!    — `SEQ` / paths / Theorem 4.7 / Theorem 5.3 / §7 by shape, or the
//!    naive minimal-model enumeration for n-ary inputs — and the
//!    executor runs it. [`Engine::explain_route`] makes the same choice
//!    without running anything.
//!
//! The [`Strategy`] enum pins a specific algorithm, which the benchmarks
//! and the cross-validation tests use.

use crate::prepared::{MonadicPlan, PreparedDisjunct, PreparedQuery};
use crate::route::{self, Route};
use crate::verdict::{MonadicVerdict, NaryVerdict};
use crate::{bounded, disjunctive, ineq, naive, paths, seq};
use indord_core::bitset::PredSet;
use indord_core::database::{Database, NormalDatabase};
use indord_core::error::{CoreError, Result};
use indord_core::model::{FiniteModel, MonadicModel};
use indord_core::monadic::{MonadicDatabase, MonadicQuery};
use indord_core::query::DnfQuery;
use indord_core::scaffold::{DisjunctiveScaffold, SubScaffold};
use indord_core::session::{object_profiles_of, Session};
use indord_core::sym::Vocabulary;
use std::borrow::Cow;
use std::cell::OnceCell;

/// Tunable evaluation limits, fixed at engine construction and threaded
/// through every route (one-shot, prepared, batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntailOptions {
    /// Cap on states explored by the Theorem 5.3 disjunctive search;
    /// exceeding it surfaces as [`CoreError::CapExceeded`]. Defaults to
    /// [`disjunctive::STATE_CAP`].
    pub state_cap: usize,
    /// Cap for `!=` orientation eliminations (§7) and similar expansions.
    pub expansion_cap: usize,
    /// Optional wall-clock deadline: the Theorem 5.3 search loops poll
    /// it cooperatively and abandon the search with
    /// [`CoreError::DeadlineExceeded`] once it passes, so a served
    /// request can be cancelled instead of occupying a worker until the
    /// state cap trips.
    pub deadline: Option<std::time::Instant>,
}

impl Default for EntailOptions {
    fn default() -> Self {
        EntailOptions {
            state_cap: disjunctive::STATE_CAP,
            expansion_cap: 4096,
            deadline: None,
        }
    }
}

impl EntailOptions {
    /// Sets the wall-clock deadline for cooperative cancellation.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The [`disjunctive::SearchLimits`] these options induce.
    pub fn search_limits(&self) -> disjunctive::SearchLimits {
        disjunctive::SearchLimits {
            state_cap: self.state_cap,
            deadline: self.deadline,
        }
    }
}

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Choose automatically from the query/database shape.
    #[default]
    Auto,
    /// Naive minimal-model enumeration (works for everything; exponential).
    Naive,
    /// `SEQ` — requires a single sequential monadic disjunct.
    Seq,
    /// Path decomposition (Lemma 4.1) — conjunctive monadic.
    Paths,
    /// Theorem 4.7 product search — conjunctive monadic.
    BoundedWidth,
    /// Theorem 5.3 product search — disjunctive monadic.
    Disjunctive,
}

impl Strategy {
    /// Stable lowercase label (used by `EXPLAIN` output).
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Naive => "naive",
            Strategy::Seq => "seq",
            Strategy::Paths => "paths",
            Strategy::BoundedWidth => "bounded-width",
            Strategy::Disjunctive => "disjunctive",
        }
    }
}

/// The unified verdict of the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The query is certain.
    Entailed,
    /// Falsified by a monadic countermodel.
    MonadicCountermodel(MonadicModel),
    /// Falsified by an n-ary countermodel.
    NaryCountermodel(Box<FiniteModel>),
}

impl Verdict {
    /// True when entailed.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Entailed)
    }
}

impl From<MonadicVerdict> for Verdict {
    fn from(v: MonadicVerdict) -> Verdict {
        match v {
            MonadicVerdict::Entailed => Verdict::Entailed,
            MonadicVerdict::Countermodel(m) => Verdict::MonadicCountermodel(m),
        }
    }
}

impl From<NaryVerdict> for Verdict {
    fn from(v: NaryVerdict) -> Verdict {
        match v {
            NaryVerdict::Entailed => Verdict::Entailed,
            NaryVerdict::Countermodel(m) => Verdict::NaryCountermodel(m),
        }
    }
}

/// The entailment engine (borrowing the vocabulary for signature lookups).
#[derive(Debug, Clone, Copy)]
pub struct Engine<'a> {
    voc: &'a Vocabulary,
    strategy: Strategy,
    options: EntailOptions,
}

impl<'a> Engine<'a> {
    /// Creates an engine with the automatic strategy and default limits.
    pub fn new(voc: &'a Vocabulary) -> Self {
        Engine {
            voc,
            strategy: Strategy::Auto,
            options: EntailOptions::default(),
        }
    }

    /// Pins a strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the evaluation limits wholesale.
    pub fn with_options(mut self, options: EntailOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the Theorem 5.3 state cap (default
    /// [`disjunctive::STATE_CAP`]).
    pub fn with_state_cap(mut self, state_cap: usize) -> Self {
        self.options.state_cap = state_cap;
        self
    }

    /// Overrides the `!=` expansion cap.
    pub fn with_expansion_cap(mut self, expansion_cap: usize) -> Self {
        self.options.expansion_cap = expansion_cap;
        self
    }

    /// Sets a wall-clock deadline for cooperative cancellation of the
    /// Theorem 5.3 search (see [`EntailOptions::with_deadline`]).
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// The evaluation limits in force.
    pub fn options(&self) -> EntailOptions {
        self.options
    }

    /// Compiles a query for repeated evaluation: every
    /// database-independent artifact (object splits, flexi-words, path
    /// decompositions, `!=` expansions, per-disjunct routing) is computed
    /// here, once.
    pub fn prepare(&self, query: &DnfQuery) -> Result<PreparedQuery> {
        PreparedQuery::compile(self.voc, query, self.strategy, self.options.expansion_cap)
    }

    /// Decides `D |= Φ` for a prepared query against a session, reusing
    /// the session's cached normalized/monadic views. No normalization or
    /// query compilation happens on a warm session.
    pub fn entails_prepared(&self, session: &Session, pq: &PreparedQuery) -> Result<Verdict> {
        self.execute(
            &SessionView {
                session,
                voc: self.voc,
            },
            pq,
        )
    }

    /// Evaluates a batch of prepared queries against one session; the
    /// database is normalized (at most) once for the whole batch.
    pub fn entails_batch(
        &self,
        session: &Session,
        queries: &[PreparedQuery],
    ) -> Result<Vec<Verdict>> {
        queries
            .iter()
            .map(|pq| self.entails_prepared(session, pq))
            .collect()
    }

    /// Decides `D |= Φ` in one shot: compatibility wrapper that prepares
    /// the query, normalizes the database, evaluates, and discards both
    /// artifacts. Repeated-query callers should use [`Engine::prepare`] +
    /// [`Engine::entails_prepared`].
    pub fn entails(&self, db: &Database, query: &DnfQuery) -> Result<Verdict> {
        let pq = self.prepare(query)?;
        let view = FreshView {
            voc: self.voc,
            nd: db.normalize()?,
            mdb: OnceCell::new(),
            profiles: OnceCell::new(),
            scaffold: OnceCell::new(),
        };
        self.execute(&view, &pq)
    }

    /// The route [`Engine::entails_prepared`] takes for `pq` on
    /// `session`, from the same `route::choose` call, without running
    /// any search: only the session's normalized and monadic views and
    /// object profiles are read (computed first if the session is cold).
    pub fn explain_route(&self, session: &Session, pq: &PreparedQuery) -> Result<Route> {
        let view = SessionView {
            session,
            voc: self.voc,
        };
        view.normal()?;
        choose(pq, Monadic::of(&view, pq)?.as_ref())
    }

    /// The shared executor behind [`Engine::entails`] and
    /// [`Engine::entails_prepared`]: choose the route, record it, run it.
    fn execute<V: DbView>(&self, view: &V, pq: &PreparedQuery) -> Result<Verdict> {
        let nd = view.normal()?;
        let monadic = Monadic::of(view, pq)?;
        let route = choose(pq, monadic.as_ref())?;
        route::record(route);
        let m = || {
            monadic
                .as_ref()
                .expect("the chooser gives monadic routes to monadic inputs only")
        };
        let limits = self.options.search_limits();
        let verdict = match route {
            Route::Empty => return Ok(empty_query_verdict(nd)),
            Route::Object => MonadicVerdict::Entailed,
            Route::Naive => match &monadic {
                None => return Ok(naive::nary_check(nd, &pq.query)?.into()),
                Some(m) => naive::monadic_check(m.mdb, &m.orders())?,
            },
            Route::Seq => {
                let m = m();
                let flexi = m.compiled().flexi.as_ref();
                seq::check(m.mdb, flexi.expect("a seq route has a flexi-word"))
            }
            Route::Paths => {
                let m = m();
                match &m.compiled().paths {
                    Some(ps) => paths::check_precompiled(m.mdb, ps),
                    None => paths::check(m.mdb, m.order()),
                }
            }
            Route::BoundedWidth => bounded::check(m().mdb, m().order()),
            Route::Disjunctive => {
                let m = m();
                disjunctive::check_restricted(m.mdb, &view.sub_scaffold()?, &m.orders(), limits)?
            }
            // Query `!=` atoms run pre-expanded (cached on the prepared
            // query); database `!=` constraints run through the
            // sub-scaffold projection of the shared scaffold, so both
            // directions hit warm search tables.
            Route::Ne => {
                let m = m();
                let expanded = m.plan.survivor_expansions(&m.survivors);
                let sub = view.sub_scaffold()?;
                ineq::entails_expanded_restricted(
                    m.mdb,
                    &sub,
                    &m.orders(),
                    Some(&expanded),
                    limits,
                )?
            }
        };
        Ok(verdict.into())
    }
}

/// `route::choose` on what the executor sees of the database.
fn choose(pq: &PreparedQuery, monadic: Option<&Monadic<'_>>) -> Result<Route> {
    route::choose(
        pq,
        monadic.map(|m| &m.survivors[..]),
        monadic.is_some_and(|m| !m.mdb.ne.is_empty()),
    )
}

/// The monadic pipeline's view of one evaluation: the database's
/// labelled dag, the query's compiled plan, and the disjuncts whose
/// object parts (§4) hold against the database's definite facts.
struct Monadic<'a> {
    mdb: &'a MonadicDatabase,
    plan: &'a MonadicPlan,
    survivors: Vec<usize>,
}

impl<'a> Monadic<'a> {
    /// `None` when the pipeline does not apply: the empty query (decided
    /// by consistency), a query compiled without it, or an n-ary
    /// database.
    fn of<V: DbView>(view: &'a V, pq: &'a PreparedQuery) -> Result<Option<Self>> {
        let Some(plan) = pq.monadic.as_ref().filter(|p| !p.orders.is_empty()) else {
            return Ok(None);
        };
        let mdb = match view.monadic() {
            Ok(mdb) => mdb,
            // An n-ary database: the naive engine decides.
            Err(CoreError::NotMonadic { .. }) => return Ok(None),
            // Anything else (e.g. a session warmed against a different
            // vocabulary) must surface, not silently fall back to an
            // engine that would misread the predicate symbols.
            Err(e) => return Err(e),
        };
        let profiles = view.object_profiles()?;
        let survivors = (0..plan.objects.len())
            .filter(|&i| plan.objects[i].holds_against(profiles))
            .collect();
        Ok(Some(Monadic {
            mdb,
            plan,
            survivors,
        }))
    }

    /// The surviving order parts.
    fn orders(&self) -> Cow<'a, [MonadicQuery]> {
        self.plan.survivor_orders(&self.survivors)
    }

    /// The order part of the one survivor of a conjunctive route.
    fn order(&self) -> &'a MonadicQuery {
        &self.plan.orders[self.survivors[0]]
    }

    /// The compiled artifacts of the one survivor of a conjunctive route.
    fn compiled(&self) -> &'a PreparedDisjunct {
        &self.plan.compiled()[self.survivors[0]]
    }
}

/// Database views the executor runs against: a cached [`Session`] or a
/// freshly-normalized one-shot database. Both are lazy about the monadic
/// view, object profiles, and disjunctive scaffold — the n-ary route
/// never computes them.
trait DbView {
    fn normal(&self) -> Result<&NormalDatabase>;
    fn monadic(&self) -> Result<&MonadicDatabase>;
    fn object_profiles(&self) -> Result<&[PredSet]>;
    /// The Theorem 5.3 scaffold projected onto the database's
    /// `!=`-separating region (§7); the whole scaffold when the database
    /// has no `!=`.
    fn sub_scaffold(&self) -> Result<SubScaffold<'_>>;
}

struct SessionView<'a> {
    session: &'a Session,
    voc: &'a Vocabulary,
}

impl DbView for SessionView<'_> {
    fn normal(&self) -> Result<&NormalDatabase> {
        self.session.normal()
    }

    fn monadic(&self) -> Result<&MonadicDatabase> {
        self.session.monadic(self.voc)
    }

    fn object_profiles(&self) -> Result<&[PredSet]> {
        self.session.object_profiles()
    }

    fn sub_scaffold(&self) -> Result<SubScaffold<'_>> {
        self.session.sub_scaffold(self.voc)
    }
}

struct FreshView<'a> {
    voc: &'a Vocabulary,
    nd: NormalDatabase,
    mdb: OnceCell<Result<MonadicDatabase>>,
    profiles: OnceCell<Vec<PredSet>>,
    scaffold: OnceCell<DisjunctiveScaffold>,
}

impl DbView for FreshView<'_> {
    fn normal(&self) -> Result<&NormalDatabase> {
        Ok(&self.nd)
    }

    fn monadic(&self) -> Result<&MonadicDatabase> {
        self.mdb
            .get_or_init(|| MonadicDatabase::from_normal(self.voc, &self.nd))
            .as_ref()
            .map_err(Clone::clone)
    }

    fn object_profiles(&self) -> Result<&[PredSet]> {
        Ok(self.profiles.get_or_init(|| object_profiles_of(&self.nd)))
    }

    fn sub_scaffold(&self) -> Result<SubScaffold<'_>> {
        let mdb = self.monadic()?;
        let scaffold = self.scaffold.get_or_init(|| DisjunctiveScaffold::new(mdb));
        Ok(SubScaffold::project(scaffold, mdb))
    }
}

/// The verdict on the empty (false) query: entailed only when the
/// database has no models — normalization already rejected inconsistent
/// order atoms, so only a merged `!=` pair is left — and otherwise
/// refuted by any minimal model.
fn empty_query_verdict(nd: &NormalDatabase) -> Verdict {
    if nd.has_contradictory_ne() {
        return Verdict::Entailed;
    }
    let sort = indord_core::toposort::canonical_sort(&nd.graph);
    if indord_core::toposort::sort_respects_ne(nd, &sort) {
        return Verdict::NaryCountermodel(Box::new(indord_core::toposort::model_of_sort(
            nd, &sort,
        )));
    }
    // Rare: the canonical sort merged a `!=` pair; enumerate instead.
    let mut found = None;
    let _ = indord_core::toposort::for_each_minimal_model(nd, &mut |m| {
        found = Some(m.clone());
        false
    });
    match found {
        Some(m) => Verdict::NaryCountermodel(Box::new(m)),
        None => Verdict::Entailed, // genuinely no models
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indord_core::parse::{parse_database, parse_query, parse_query_with_db};

    #[test]
    fn auto_routes_monadic_sequential() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        let q2 = parse_query(&mut voc, "exists s t. Q(s) & s < t & P(t)").unwrap();
        let eng = Engine::new(&voc);
        assert!(eng.entails(&db, &q).unwrap().holds());
        assert!(!eng.entails(&db, &q2).unwrap().holds());
    }

    #[test]
    fn strategies_agree_on_monadic_conjunctive() {
        let mut voc = Vocabulary::new();
        let db =
            parse_database(&mut voc, "P(u1); Q(u2); u1 < u2; P(v1); R(v2); v1 <= v2;").unwrap();
        let q = parse_query(
            &mut voc,
            "exists a b c. P(a) & a < b & Q(b) & a <= c & R(c)",
        )
        .unwrap();
        let mut verdicts = Vec::new();
        for s in [
            Strategy::Naive,
            Strategy::Paths,
            Strategy::BoundedWidth,
            Strategy::Disjunctive,
        ] {
            let eng = Engine::new(&voc).with_strategy(s);
            verdicts.push(eng.entails(&db, &q).unwrap().holds());
        }
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
    }

    #[test]
    fn object_part_filters_disjuncts() {
        let mut voc = Vocabulary::new();
        // Employee is monadic over objects; P over order points.
        let db = parse_database(
            &mut voc,
            "pred Employee(obj); pred P(ord); Employee(alice); P(u);",
        )
        .unwrap();
        // disjunct 1 requires an object with Boss (absent) — filtered out;
        // disjunct 2 requires Employee + P — holds.
        let db2 = parse_database(&mut voc, "pred Boss(obj);").unwrap();
        assert!(db2.is_empty());
        let q = parse_query(
            &mut voc,
            "(exists x t. Boss(x) & P(t)) | (exists x t. Employee(x) & P(t))",
        )
        .unwrap();
        let q2 = parse_query(&mut voc, "exists x t. Boss(x) & P(t)").unwrap();
        let eng = Engine::new(&voc);
        assert!(eng.entails(&db, &q).unwrap().holds());
        assert!(!eng.entails(&db, &q2).unwrap().holds());
    }

    #[test]
    fn nary_falls_back_to_naive() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "R(u, v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. R(s, t) & s < t").unwrap();
        let q2 = parse_query(&mut voc, "exists s t. R(s, t) & t < s").unwrap();
        let eng = Engine::new(&voc);
        assert!(eng.entails(&db, &q).unwrap().holds());
        assert!(!eng.entails(&db, &q2).unwrap().holds());
    }

    #[test]
    fn empty_query_not_entailed_by_consistent_db() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u);").unwrap();
        let eng = Engine::new(&voc);
        let v = eng.entails(&db, &DnfQuery::default()).unwrap();
        assert!(!v.holds());
    }

    #[test]
    fn prepared_agrees_with_one_shot_and_skips_renormalization() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        let q2 = parse_query(&mut voc, "exists s t. Q(s) & s < t & P(t)").unwrap();
        let eng = Engine::new(&voc);
        let session = indord_core::session::Session::new(db.clone());
        let (p1, p2) = (eng.prepare(&q).unwrap(), eng.prepare(&q2).unwrap());
        assert_eq!(p1.plan().unwrap(), Route::Seq);
        for _ in 0..3 {
            assert_eq!(
                eng.entails_prepared(&session, &p1).unwrap(),
                eng.entails(&db, &q).unwrap()
            );
            assert_eq!(
                eng.entails_prepared(&session, &p2).unwrap(),
                eng.entails(&db, &q2).unwrap()
            );
        }
        assert!(session.is_warm());
        let batch = eng.entails_batch(&session, &[p1, p2]).unwrap();
        assert!(batch[0].holds() && !batch[1].holds());
    }

    #[test]
    fn prepared_tracks_session_mutation() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u <= v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        let eng = Engine::new(&voc);
        let pq = eng.prepare(&q).unwrap();
        let mut session = indord_core::session::Session::new(db);
        assert!(!eng.entails_prepared(&session, &pq).unwrap().holds());
        // u < v makes the query certain; the session must see it.
        session.assert_lt(u, v);
        assert!(eng.entails_prepared(&session, &pq).unwrap().holds());
        assert_eq!(
            eng.entails(session.database(), &q).unwrap(),
            eng.entails_prepared(&session, &pq).unwrap()
        );
    }

    #[test]
    fn mismatched_vocabulary_surfaces_not_misroutes() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        let session = indord_core::session::Session::new(db);
        let eng = Engine::new(&voc);
        let pq = eng.prepare(&q).unwrap();
        assert!(eng.entails_prepared(&session, &pq).unwrap().holds());
        // An engine over a structurally different vocabulary must get a
        // typed error, not a silently-misread verdict off shared indices.
        let mut other = Vocabulary::new();
        other.monadic_pred("X");
        other.monadic_pred("Y");
        let q2 = parse_query(&mut other, "exists t. X(t)").unwrap();
        let eng2 = Engine::new(&other);
        let pq2 = eng2.prepare(&q2).unwrap();
        assert_eq!(
            eng2.entails_prepared(&session, &pq2).unwrap_err(),
            CoreError::VocabularyMismatch
        );
    }

    #[test]
    fn state_cap_knob_is_honored_on_every_path() {
        let mut voc = Vocabulary::new();
        let db = parse_database(
            &mut voc,
            "pred P(ord); pred Q(ord); pred R(ord); P(u); Q(v); R(w);",
        )
        .unwrap();
        let q = parse_query(&mut voc, "(exists s. P(s) & Q(s)) | exists s. Q(s) & R(s)").unwrap();
        // Default cap: fine.
        let eng = Engine::new(&voc);
        assert_eq!(eng.options(), EntailOptions::default());
        assert!(eng.entails(&db, &q).is_ok());
        // A starved cap surfaces the typed error on both one-shot and
        // prepared paths.
        let tiny = Engine::new(&voc).with_state_cap(2);
        assert_eq!(tiny.options().state_cap, 2);
        assert!(matches!(
            tiny.entails(&db, &q).unwrap_err(),
            CoreError::CapExceeded { limit: 2, .. }
        ));
        let session = indord_core::session::Session::new(db);
        let pq = tiny.prepare(&q).unwrap();
        assert!(matches!(
            tiny.entails_prepared(&session, &pq).unwrap_err(),
            CoreError::CapExceeded { limit: 2, .. }
        ));
        // The same session recovers under a roomier engine.
        let roomy = Engine::new(&voc).with_options(EntailOptions {
            state_cap: 100_000,
            ..EntailOptions::default()
        });
        assert!(roomy.entails_prepared(&session, &pq).is_ok());
    }

    #[test]
    fn state_cap_reaches_the_query_ne_route() {
        // A `!=` query on a [<,<=] database takes the §7 expansion route;
        // its Theorem 5.3 leg must run under the engine's cap, falling
        // back to the (here, tiny) naive enumeration when starved rather
        // than searching millions of states.
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); P(v); u <= v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & P(t) & s != t").unwrap();
        let verdict = Engine::new(&voc).entails(&db, &q).unwrap();
        let starved = Engine::new(&voc)
            .with_state_cap(1)
            .entails(&db, &q)
            .unwrap();
        assert_eq!(verdict, starved, "naive fallback must agree");
    }

    #[test]
    fn db_ne_route_runs_on_the_session_scaffold() {
        // A database with != constraints: the Auto route must evaluate
        // through the session-cached scaffold (observable as memoized
        // pairs after evaluation), and agree with pinned Naive.
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); P(v); Q(w); u != v; w <= u;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & P(t) & s < t").unwrap();
        let eng = Engine::new(&voc);
        let session = indord_core::session::Session::new(db.clone());
        let pq = eng.prepare(&q).unwrap();
        let warm = eng.entails_prepared(&session, &pq).unwrap();
        assert_eq!(warm, eng.entails(&db, &q).unwrap());
        assert_eq!(
            warm.holds(),
            Engine::new(&voc)
                .with_strategy(Strategy::Naive)
                .entails(&db, &q)
                .unwrap()
                .holds()
        );
        let scaffold = session.disjunctive_scaffold(&voc).unwrap();
        assert!(
            scaffold.cached_pair_count() > 0,
            "the §7 route must populate the shared pair table"
        );
        // Second evaluation reuses the same scaffold object.
        let before = scaffold as *const _;
        assert_eq!(eng.entails_prepared(&session, &pq).unwrap(), warm);
        assert!(std::ptr::eq(
            before,
            session.disjunctive_scaffold(&voc).unwrap()
        ));
    }

    #[test]
    fn pinned_disjunctive_enforces_db_ne() {
        // Database != is handled natively by the sub-scaffold projection
        // under the pinned Disjunctive strategy; query != is still
        // refused (it needs the §7 expansion).
        let mut voc = Vocabulary::new();
        let free = parse_database(&mut voc, "pred P(ord); pred Q(ord); P(u); Q(v);").unwrap();
        let db = parse_database(&mut voc, "P(u); Q(v); u != v;").unwrap();
        // "P strictly before Q, or Q strictly before P": certain exactly
        // because u != v excludes the merged one-point model.
        let q = parse_query(
            &mut voc,
            "(exists s t. P(s) & s < t & Q(t)) | (exists s t. Q(s) & s < t & P(t))",
        )
        .unwrap();
        let q_ne = parse_query(&mut voc, "exists s t. P(s) & Q(t) & s != t").unwrap();
        let eng = Engine::new(&voc).with_strategy(Strategy::Disjunctive);
        let by_disj = eng.entails(&db, &q).unwrap();
        let by_auto = Engine::new(&voc).entails(&db, &q).unwrap();
        assert_eq!(by_disj.holds(), by_auto.holds());
        assert!(by_disj.holds(), "u != v forces strict separation");
        assert!(
            !eng.entails(&free, &q).unwrap().holds(),
            "without the constraint the merged model is a countermodel"
        );
        assert!(eng.entails(&db, &q_ne).is_err(), "query != must be refused");
        assert!(Engine::new(&voc).entails(&db, &q_ne).is_ok());
    }

    #[test]
    fn prepared_nary_and_empty_queries() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "R(u, v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. R(s, t) & s < t").unwrap();
        let eng = Engine::new(&voc);
        let session = indord_core::session::Session::new(db.clone());
        let pq = eng.prepare(&q).unwrap();
        assert_eq!(pq.plan().unwrap(), Route::Naive);
        assert!(eng.entails_prepared(&session, &pq).unwrap().holds());
        let empty = eng.prepare(&DnfQuery::default()).unwrap();
        assert_eq!(
            eng.entails_prepared(&session, &empty).unwrap().holds(),
            eng.entails(&db, &DnfQuery::default()).unwrap().holds()
        );
    }

    #[test]
    fn constants_in_queries_work_end_to_end() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(a, u); P(b, v); u < v;").unwrap();
        let (gdb, q) =
            parse_query_with_db(&mut voc, &db, "exists s t. P(a, s) & s < t & P(b, t)").unwrap();
        let (gdb2, q2) =
            parse_query_with_db(&mut voc, &db, "exists s t. P(b, s) & s < t & P(a, t)").unwrap();
        let eng = Engine::new(&voc);
        assert!(eng.entails(&gdb, &q).unwrap().holds());
        assert!(!eng.entails(&gdb2, &q2).unwrap().holds());
    }
}
