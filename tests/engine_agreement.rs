//! The most valuable correctness check in the repository: every engine
//! must agree with the naive minimal-model oracle on randomized inputs.

use indord::core::atom::OrderRel;
use indord::core::bitset::PredSet;
use indord::core::flexi::FlexiWord;
use indord::core::monadic::{MonadicDatabase, MonadicQuery};
use indord::core::ordgraph::OrderGraph;
use indord::core::parse::{parse_database, parse_query};
use indord::core::session::Session;
use indord::core::sym::{PredSym, Vocabulary};
use indord::entail::Strategy as EngineStrategy;
use indord::entail::{bounded, disjunctive, modelcheck, naive, paths, seq, Engine};
use indord::wqo;
use proptest::prelude::*;

const NPREDS: usize = 3;

fn pred_set() -> impl Strategy<Value = PredSet> {
    proptest::bits::u8::between(0, NPREDS).prop_map(|bits| {
        (0..NPREDS)
            .filter(|i| bits & (1 << i) != 0)
            .map(PredSym::from_index)
            .collect()
    })
}

/// A random labelled dag on up to `n` vertices.
fn labelled_dag(max_n: usize) -> impl Strategy<Value = (OrderGraph, Vec<PredSet>)> {
    (1..=max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec(
            (
                0..n * n,
                prop_oneof![Just(OrderRel::Lt), Just(OrderRel::Le), Just(OrderRel::Ne)],
            ),
            0..=n * 2,
        );
        let labels = proptest::collection::vec(pred_set(), n);
        (Just(n), edges, labels).prop_map(|(n, raw_edges, labels)| {
            let mut edges = Vec::new();
            for (code, rel) in raw_edges {
                let (i, j) = (code / n, code % n);
                if i < j && rel != OrderRel::Ne {
                    edges.push((i, j, rel));
                }
            }
            (
                OrderGraph::from_dag_edges(n, &edges).expect("forward edges are acyclic"),
                labels,
            )
        })
    })
}

fn db_strategy(max_n: usize) -> impl Strategy<Value = MonadicDatabase> {
    labelled_dag(max_n).prop_map(|(g, l)| MonadicDatabase::new(g, l))
}

fn query_strategy(max_n: usize) -> impl Strategy<Value = MonadicQuery> {
    labelled_dag(max_n).prop_map(|(g, l)| MonadicQuery::new(g, l))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// paths (Lemma 4.1 + SEQ) == bounded (Thm 4.7) == disjunctive
    /// (Thm 5.3, singleton) == compiled (Thm 6.5 basis) == naive oracle.
    #[test]
    fn conjunctive_engines_agree(
        db in db_strategy(5),
        q in query_strategy(4),
    ) {
        let by_naive = naive::monadic_check(&db, std::slice::from_ref(&q)).unwrap().holds();
        let by_paths = paths::entails(&db, &q);
        let by_bounded = bounded::entails(&db, &q);
        let by_disj = disjunctive::entails(&db, std::slice::from_ref(&q)).unwrap();
        let by_compiled = wqo::compile_conjunctive(&q).entails(&db);
        prop_assert_eq!(by_paths, by_naive, "paths vs naive");
        prop_assert_eq!(by_bounded, by_naive, "bounded vs naive");
        prop_assert_eq!(by_disj, by_naive, "disjunctive vs naive");
        prop_assert_eq!(by_compiled, by_naive, "compiled vs naive");
    }

    /// Disjunctive engine == naive oracle on 2-disjunct queries, and its
    /// countermodels are genuine.
    #[test]
    fn disjunctive_engine_agrees(
        db in db_strategy(4),
        q1 in query_strategy(3),
        q2 in query_strategy(3),
    ) {
        let disjuncts = vec![q1, q2];
        let by_naive = naive::monadic_check(&db, &disjuncts).unwrap().holds();
        let verdict = disjunctive::check(&db, &disjuncts).unwrap();
        prop_assert_eq!(verdict.holds(), by_naive);
        if let Some(m) = verdict.countermodel() {
            prop_assert!(modelcheck::is_model_of(m, &db), "countermodel supports D");
            prop_assert!(!modelcheck::satisfies(m, &disjuncts), "countermodel falsifies Φ");
        }
    }

    /// Sequential queries: SEQ == naive oracle, and SEQ countermodels are
    /// genuine.
    #[test]
    fn seq_agrees_with_oracle(
        db in db_strategy(5),
        labels in proptest::collection::vec(pred_set(), 1..4),
        rels in proptest::collection::vec(
            prop_oneof![Just(OrderRel::Lt), Just(OrderRel::Le)], 3),
    ) {
        let mut fw = FlexiWord::empty();
        for (i, l) in labels.iter().enumerate() {
            if i == 0 {
                fw.push(OrderRel::Lt, l.clone());
            } else {
                fw.push(rels[i - 1], l.clone());
            }
        }
        let q = MonadicQuery::from_flexiword(&fw);
        let by_naive = naive::monadic_check(&db, std::slice::from_ref(&q)).unwrap().holds();
        match seq::check(&db, &fw) {
            indord::entail::MonadicVerdict::Entailed => prop_assert!(by_naive),
            indord::entail::MonadicVerdict::Countermodel(m) => {
                prop_assert!(!by_naive);
                prop_assert!(modelcheck::is_model_of(&m, &db));
                prop_assert!(!modelcheck::satisfies_conjunct(&m, &q));
            }
        }
    }

    /// Countermodel enumeration: every enumerated model is a genuine
    /// countermodel, and enumeration is nonempty iff entailment fails.
    #[test]
    fn countermodel_enumeration_is_sound(
        db in db_strategy(4),
        q in query_strategy(3),
    ) {
        let disjuncts = vec![q];
        let holds = disjunctive::entails(&db, &disjuncts).unwrap();
        let models = disjunctive::countermodels(&db, &disjuncts, 64).unwrap();
        prop_assert_eq!(holds, models.is_empty());
        for m in &models {
            prop_assert!(modelcheck::is_model_of(m, &db));
            prop_assert!(!modelcheck::satisfies(m, &disjuncts));
        }
    }

    /// The wqo order is monotone for entailment (Lemma 6.4): D1 ⊑ D2 and
    /// D1 |= Φ imply D2 |= Φ.
    #[test]
    fn lemma_6_4_upward_closure(
        d1 in db_strategy(3),
        d2 in db_strategy(4),
        q in query_strategy(3),
    ) {
        if wqo::db_le(&d1, &d2) && paths::entails(&d1, &q) {
            prop_assert!(paths::entails(&d2, &q));
        }
    }

    /// Greedy model checking (Cor 5.1) == backtracking model checking.
    #[test]
    fn modelcheck_greedy_equals_backtracking(
        labels in proptest::collection::vec(pred_set(), 0..5),
        q in query_strategy(4),
    ) {
        let m = indord::core::model::MonadicModel::new(labels);
        prop_assert_eq!(
            modelcheck::satisfies_conjunct(&m, &q),
            q.holds_in_naive(&m)
        );
    }
}

// ---------------------------------------------------------------------
// Prepared vs. unprepared agreement: for every strategy and a grid of
// monadic / object-part / n-ary / `!=` databases, `prepare` +
// `entails_prepared` on a (cold and warm) `Session` must return exactly
// the verdict of the one-shot `entails` path; and a mutated session must
// agree with a fresh evaluation of its database.
// ---------------------------------------------------------------------

const ALL_STRATEGIES: [EngineStrategy; 6] = [
    EngineStrategy::Auto,
    EngineStrategy::Naive,
    EngineStrategy::Seq,
    EngineStrategy::Paths,
    EngineStrategy::BoundedWidth,
    EngineStrategy::Disjunctive,
];

/// Both paths under one strategy: identical `Ok` verdicts (including the
/// countermodels), or both `Err`, or both panicking (the pinned Thm 4.7 /
/// 5.3 engines assert `[<,<=]` inputs on either path).
fn assert_prepared_agrees(db_text: &str, q_text: &str) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut voc = Vocabulary::new();
    let db = parse_database(&mut voc, db_text).expect(db_text);
    let q = parse_query(&mut voc, q_text).expect(q_text);
    let mut ok_verdicts: Vec<(EngineStrategy, bool)> = Vec::new();
    for strategy in ALL_STRATEGIES {
        let eng = Engine::new(&voc).with_strategy(strategy);
        let direct = catch_unwind(AssertUnwindSafe(|| eng.entails(&db, &q)));
        let session = Session::new(db.clone());
        let via_prepared = catch_unwind(AssertUnwindSafe(|| {
            eng.prepare(&q).and_then(|pq| {
                let cold = eng.entails_prepared(&session, &pq)?;
                let warm = eng.entails_prepared(&session, &pq)?;
                assert_eq!(cold, warm, "{strategy:?}: warm session drifted on {q_text}");
                Ok(cold)
            })
        }));
        match (direct, via_prepared) {
            (Ok(Ok(a)), Ok(Ok(b))) => {
                assert_eq!(
                    a, b,
                    "{strategy:?}: prepared disagrees on {db_text} |= {q_text}"
                );
                ok_verdicts.push((strategy, a.holds()));
            }
            (Ok(Err(_)), Ok(Err(_))) => {}
            (Err(_), Err(_)) => {}
            (a, b) => {
                panic!("{strategy:?}: paths diverged on {db_text} |= {q_text}: {a:?} vs {b:?}")
            }
        }
    }
    // Every strategy that decides the instance must reach the same answer
    // (e.g. Auto's monadic pipeline vs. pinned Naive's n-ary enumeration).
    assert!(
        ok_verdicts.windows(2).all(|w| w[0].1 == w[1].1),
        "strategies disagree on {db_text} |= {q_text}: {ok_verdicts:?}"
    );
}

/// The prepared-agreement grid: monadic, `!=`, object-part and n-ary
/// databases, each with the queries run against it.
fn agreement_grid() -> Vec<(String, Vec<&'static str>)> {
    const DECLS: &str = "pred P(ord); pred Q(ord); pred R(ord);";
    let monadic_qs = vec![
        "exists s t. P(s) & s < t & Q(t)",
        "exists s t. Q(s) & s < t & P(t)",
        "exists s t. P(s) & s <= t & P(t)",
        "exists a b c. P(a) & a < b & Q(b) & a <= c & R(c)",
        "(exists s. P(s) & Q(s)) | exists s t. P(s) & s < t & Q(t)",
        "exists s t. P(s) & P(t) & s != t",
        "(exists s t. P(s) & s != t & Q(t)) | exists s. R(s)",
    ];
    let mut grid: Vec<(String, Vec<&'static str>)> = [
        "P(u); Q(v); u < v;",
        "P(u); Q(v); u <= v;",
        "P(u1); Q(u2); u1 < u2; P(v1); R(v2); v1 <= v2;",
        "P(u); P(v); u != v;",
        "P(u); Q(v); R(w); u <= v; v <= w; u != w;",
    ]
    .iter()
    .map(|db| (format!("{DECLS} {db}"), monadic_qs.clone()))
    .collect();
    // Object parts: disjuncts filtered by definite facts.
    grid.push((
        "pred Emp(obj); pred Boss(obj); pred P(ord); pred Q(ord);
         Emp(alice); P(u); Q(v); u < v;"
            .to_string(),
        vec![
            "exists x t. Boss(x) & P(t)",
            "exists x t. Emp(x) & P(t)",
            "(exists x t. Boss(x) & P(t)) | (exists x t. Emp(x) & P(t))",
            "(exists x. Boss(x)) | (exists x. Emp(x))",
            "exists x s t. Emp(x) & P(s) & s < t & Q(t)",
        ],
    ));
    // n-ary databases route to the naive engine on both paths.
    grid.push((
        "R(u, v); u < v; R(v, w); v <= w;".to_string(),
        vec![
            "exists s t. R(s, t) & s < t",
            "exists s t. R(s, t) & t < s",
            "exists s t x. R(s, t) & R(t, x) & s < x",
        ],
    ));
    grid
}

#[test]
fn prepared_agreement_grid() {
    for (db, queries) in agreement_grid() {
        for q in queries {
            assert_prepared_agrees(&db, q);
        }
    }
}

/// Outcome of every strategy on each grid cell, in [`ALL_STRATEGIES`]
/// order: `T` entailed, `F` refuted, `E` refused with an error. One row
/// per grid database, one word per query; the second half is the same
/// grid with one unrelated `!=` pair added to each database.
const GRID_OUTCOMES: [&str; 14] = [
    "TTTTTT FFFFFF TTTTTT FFEFFF TTEEET FFEEEE TTEEEE",
    "FFFFFF FFFFFF TTTTTT FFEFFF TTEEET FFEEEE FFEEEE",
    "TTTTTT FFFFFF TTTTTT TTETTT TTEEET FFEEEE TTEEEE",
    "FFEEEF FFEEEF TTEEET FFEEEF FFEEEF TTEEEE FFEEEE",
    "FFEEEF FFEEEF TTEEET FFEEEF TTEEET FFEEEE TTEEEE",
    "FFFFFF TTTTTT TTTTTT TTTTTT TTTTTT",
    "TTEEEE FFEEEE TTEEEE",
    "TTEEET FFEEEF TTEEET FFEEEF TTEEET FFEEEE TTEEEE",
    "FFEEEF FFEEEF TTEEET FFEEEF TTEEET FFEEEE FFEEEE",
    "TTEEET FFEEEF TTEEET TTEEET TTEEET FFEEEE TTEEEE",
    "FFEEEF FFEEEF TTEEET FFEEEF FFEEEF TTEEEE FFEEEE",
    "FFEEEF FFEEEF TTEEET FFEEEF TTEEET FFEEEE TTEEEE",
    "FFFFFF TTEEET TTEEET TTTTTT TTEEET",
    "TTEEEE FFEEEE TTEEEE",
];

/// `EXPLAIN` predicts `TRACE`: on every grid cell, with and without an
/// unrelated `!=` pair in the database, [`Engine::explain_route`] names
/// the route the evaluation then records (none when the strategy
/// refuses the input), and every strategy keeps its outcome.
#[test]
fn explained_route_is_the_route_taken() {
    use indord::entail::route;
    let grid = agreement_grid();
    let with_ne = grid
        .iter()
        .map(|(db, qs)| (format!("{db} zz1 != zz2;"), qs.clone()));
    let cells = grid.iter().cloned().chain(with_ne);
    for ((db_text, queries), outcomes) in cells.zip(GRID_OUTCOMES) {
        let words: Vec<&str> = outcomes.split(' ').collect();
        assert_eq!(words.len(), queries.len(), "{db_text}");
        for (q_text, word) in queries.iter().zip(words) {
            let mut voc = Vocabulary::new();
            let db = parse_database(&mut voc, &db_text).expect(&db_text);
            let q = parse_query(&mut voc, q_text).expect(q_text);
            for (strategy, want) in ALL_STRATEGIES.iter().zip(word.chars()) {
                let eng = Engine::new(&voc).with_strategy(*strategy);
                let pq = eng.prepare(&q).unwrap();
                let session = Session::new(db.clone());
                let explained = eng.explain_route(&session, &pq);
                let _ = route::take();
                let verdict = eng.entails_prepared(&session, &pq);
                let taken = route::take();
                let got = match &verdict {
                    Ok(v) if v.holds() => 'T',
                    Ok(_) => 'F',
                    Err(_) => 'E',
                };
                let cell = format!("{strategy:?} on {db_text} |= {q_text}");
                assert_eq!(got, want, "{cell}: {verdict:?}");
                assert_eq!(explained.ok(), taken, "{cell}");
                let _ = eng.entails(&db, &q);
                assert_eq!(route::take(), taken, "{cell}: one-shot route");
            }
        }
    }
}

#[test]
fn prepared_agreement_after_session_mutation() {
    let mut voc = Vocabulary::new();
    let db = parse_database(&mut voc, "P(u); Q(v); u <= v;").unwrap();
    let p = voc.find_pred("P").unwrap();
    let (u, v, w) = (voc.ord("u"), voc.ord("v"), voc.ord("w"));
    let queries = [
        "exists s t. P(s) & s < t & Q(t)",
        "exists s t. P(s) & s <= t & P(t)",
        "(exists s. P(s) & Q(s)) | exists s t. Q(s) & s < t & P(t)",
    ];
    let parsed: Vec<_> = queries
        .iter()
        .map(|t| parse_query(&mut voc, t).expect(t))
        .collect();
    let eng = Engine::new(&voc);
    let prepared: Vec<_> = parsed.iter().map(|q| eng.prepare(q).unwrap()).collect();

    let mut session = Session::new(db);
    let check = |session: &Session, step: &str| {
        for (pq, q) in prepared.iter().zip(&parsed) {
            let via_session = eng.entails_prepared(session, pq).unwrap();
            let fresh = eng.entails(session.database(), q).unwrap();
            assert_eq!(via_session, fresh, "{step}: session drifted from database");
        }
    };
    // A sequence of mutations exercising both the in-place and the
    // invalidating paths; after each, every prepared query must agree
    // with a fresh one-shot evaluation of the session's database.
    session.normal().unwrap(); // warm the cache
    check(&session, "warm");
    session.assert_lt(u, v);
    check(&session, "after u < v");
    session
        .insert_fact(&voc, p, vec![indord::core::atom::Term::Ord(v)])
        .unwrap();
    check(&session, "after P(v) in-place insert");
    session.assert_le(v, w);
    check(&session, "after v <= w (fresh constant)");
}

#[test]
fn prepared_ne_queries_track_session_mutations() {
    // The §7 sub-scaffold caches live inside the session's scaffold
    // layer; every mutation class (in-place fact insert, in-place order
    // edge, != constraint, fresh constant) must invalidate them exactly
    // as needed — asserted by re-checking each prepared `!=` query
    // against a fresh one-shot evaluation after every step.
    let mut voc = Vocabulary::new();
    let db = parse_database(&mut voc, "pred R(ord); P(u); Q(v); u <= v;").unwrap();
    let p = voc.find_pred("P").unwrap();
    let (u, v, w) = (voc.ord("u"), voc.ord("v"), voc.ord("w"));
    let queries = [
        "exists s t. P(s) & P(t) & s != t",
        "exists s t. P(s) & Q(t) & s != t",
        "(exists s t. P(s) & s != t & Q(t)) | exists s. R(s)",
        "(exists s t. P(s) & s < t & Q(t)) | (exists s t. Q(s) & s < t & P(t))",
        "exists s t. P(s) & s < t & Q(t)",
    ];
    let parsed: Vec<_> = queries
        .iter()
        .map(|t| parse_query(&mut voc, t).expect(t))
        .collect();
    let eng = Engine::new(&voc);
    let prepared: Vec<_> = parsed.iter().map(|q| eng.prepare(q).unwrap()).collect();

    let mut session = Session::new(db);
    let check = |session: &Session, step: &str| {
        for (pq, q) in prepared.iter().zip(&parsed) {
            let warm1 = eng.entails_prepared(session, pq).unwrap();
            let warm2 = eng.entails_prepared(session, pq).unwrap();
            assert_eq!(warm1, warm2, "{step}: warm re-evaluation drifted");
            let fresh = eng.entails(session.database(), q).unwrap();
            assert_eq!(warm1, fresh, "{step}: session drifted from database");
        }
    };
    check(&session, "cold");
    // != constraint between known constants: drops the scaffold (and its
    // blocked-bit tables) for rebuild under the new signature.
    session.assert_ne(u, v);
    check(&session, "after u != v");
    // In-place fact insert: label unions change, sub-scaffolds rebuild.
    session
        .insert_fact(&voc, p, vec![indord::core::atom::Term::Ord(v)])
        .unwrap();
    check(&session, "after P(v) in-place insert");
    // In-place order edge over known vertices (the patch path).
    session.assert_lt(u, v);
    check(&session, "after u < v in-place edge");
    // Fresh constant: full invalidation.
    session.assert_ne(v, w);
    check(&session, "after v != w (fresh constant)");
    session.assert_lt(w, u);
    check(&session, "after w < u");
}

#[test]
fn acyclic_edge_insert_does_not_over_invalidate() {
    // Regression test (ROADMAP: incremental order-atom insertion): an
    // acyclic order-edge insert over known vertices must keep the
    // normalized/monadic views warm — only the scaffold layer may drop —
    // while still changing verdicts exactly as a fresh evaluation would.
    let mut voc = Vocabulary::new();
    // `u <= u` only forces `u` onto the order sort (N2 discharges it).
    let db = parse_database(&mut voc, "P(u); Q(v); R(w); w <= v; u <= u;").unwrap();
    let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
    let q_ne = parse_query(&mut voc, "exists s t. P(s) & P(t) & s != t").unwrap();
    let (u, v) = (voc.ord("u"), voc.ord("v"));
    let eng = Engine::new(&voc);
    let (pq, pq_ne) = (eng.prepare(&q).unwrap(), eng.prepare(&q_ne).unwrap());
    let mut session = Session::new(db);
    assert!(!eng.entails_prepared(&session, &pq).unwrap().holds());
    assert!(session.is_warm());
    session.assert_lt(u, v);
    assert!(
        session.is_warm(),
        "acyclic edge over known vertices must patch, not renormalize"
    );
    assert!(
        eng.entails_prepared(&session, &pq).unwrap().holds(),
        "the patched session must see u < v"
    );
    assert_eq!(
        eng.entails_prepared(&session, &pq).unwrap(),
        eng.entails(session.database(), &q).unwrap()
    );
    assert_eq!(
        eng.entails_prepared(&session, &pq_ne).unwrap(),
        eng.entails(session.database(), &q_ne).unwrap()
    );
}
