//! Seeded generation of the three workloads: the databases the set-up
//! loads, the prepared queries with their verdicts known by
//! construction, and the fixed rounds of operations the measured phase
//! replays.

use crate::model::{Dag, Labels, Preds, Query};
use std::collections::HashMap;

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One database as the benchmark models it.
#[derive(Debug, Clone, Default)]
pub struct DbModel {
    pub name: String,
    pub dag: Dag,
    pub consts: Vec<String>,
    index: HashMap<String, usize>,
}

impl DbModel {
    pub fn new(name: &str) -> DbModel {
        DbModel {
            name: name.to_string(),
            ..DbModel::default()
        }
    }

    pub fn point(&mut self, name: &str, labels: Labels) -> usize {
        let v = self.dag.add_vertex(labels);
        self.consts.push(name.to_string());
        self.index.insert(name.to_string(), v);
        v
    }

    pub fn get(&self, name: &str) -> usize {
        self.index[name]
    }

    /// Applies an acknowledged write.
    pub fn apply(&mut self, w: &Write) {
        match w {
            Write::Label(c, l) => {
                let v = self.get(c);
                self.dag.labels[v] |= l;
            }
            Write::Edge(u, v) => {
                let (u, v) = (self.get(u), self.get(v));
                self.dag.lt(u, v);
            }
            Write::Fresh {
                after,
                name,
                labels,
            } => {
                let u = self.get(after);
                let v = self.point(name, *labels);
                self.dag.lt(u, v);
            }
        }
    }

    /// The whole database as `FACT` fragments of the points `lo..hi`
    /// (labels, plus every edge into those points).
    pub fn fragment(&self, preds: &Preds, lo: usize, hi: usize) -> String {
        let mut part = Dag::default();
        let mut names = Vec::new();
        let mut local = HashMap::new();
        let mut id = |v: usize, part: &mut Dag, names: &mut Vec<String>, own: bool| {
            *local.entry(v).or_insert_with(|| {
                names.push(self.consts[v].clone());
                part.add_vertex(if own { self.dag.labels[v] } else { 0 })
            })
        };
        for v in lo..hi {
            id(v, &mut part, &mut names, true);
        }
        for &(u, v, strict) in &self.dag.edges {
            if (lo..hi).contains(&v) {
                let (a, b) = (
                    id(u, &mut part, &mut names, (lo..hi).contains(&u)),
                    id(v, &mut part, &mut names, true),
                );
                part.edges.push((a, b, strict));
            }
        }
        for &(u, v) in &self.dag.ne {
            if (lo..hi).contains(&u) {
                let (a, b) = (
                    id(u, &mut part, &mut names, true),
                    id(v, &mut part, &mut names, (lo..hi).contains(&v)),
                );
                part.ne.push((a, b));
            }
        }
        part.fact_text(preds, &names)
    }
}

/// An acknowledged write's effect on the modelled database.
#[derive(Debug, Clone)]
pub enum Write {
    /// A label on a known point.
    Label(String, Labels),
    /// `u < v` between known points.
    Edge(String, String),
    /// A fresh point appended after a known one.
    Fresh {
        after: String,
        name: String,
        labels: Labels,
    },
}

/// A prepared query and its verdict, when known by construction.
#[derive(Debug, Clone)]
pub struct QueryDef {
    pub name: String,
    pub db: usize,
    pub q: Query,
    pub text: String,
    pub expect: Option<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Entail,
    Countermodel,
    Batch,
    Fact,
}

impl Kind {
    pub fn verb(self) -> &'static str {
        match self {
            Kind::Entail => "entail",
            Kind::Countermodel => "countermodel",
            Kind::Batch => "batch",
            Kind::Fact => "fact",
        }
    }
}

/// What a reply must be.
#[derive(Debug, Clone)]
pub enum Check {
    /// `OK inserted N atoms`.
    Inserted(u64),
    /// The verdict of query `qid`.
    Verdict(usize),
    /// The verdicts of these queries, in order.
    Batch(Vec<usize>),
    /// `CERTAIN`, or a word that falsifies query `qid` and models the
    /// database.
    Countermodel(usize),
}

/// One request of the measured sequence.
#[derive(Debug, Clone)]
pub struct Op {
    pub line: String,
    pub kind: Kind,
    /// Answered from the prepared registry (by name).
    pub prepared: bool,
    pub check: Check,
    pub write: Option<Write>,
}

impl Op {
    fn read(kind: Kind, line: String, prepared: bool, check: Check) -> Op {
        Op {
            line,
            kind,
            prepared,
            check,
            write: None,
        }
    }

    fn fact(line: String, atoms: u64, write: Write) -> Op {
        Op {
            line,
            kind: Kind::Fact,
            prepared: false,
            check: Check::Inserted(atoms),
            write: Some(write),
        }
    }

    pub fn is_read(&self) -> bool {
        self.kind != Kind::Fact
    }
}

/// Everything the benchmark knows about one workload's databases and
/// queries.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub preds: Preds,
    pub dbs: Vec<DbModel>,
    pub queries: Vec<QueryDef>,
}

impl Model {
    pub fn add_query(&mut self, name: &str, db: usize, q: Query, expect: Option<bool>) -> usize {
        let text = q.text(&self.preds);
        self.queries.push(QueryDef {
            name: name.to_string(),
            db,
            q,
            text,
            expect,
        });
        self.queries.len() - 1
    }

    /// Ids of the queries registered on database `db`.
    pub fn queries_of(&self, db: usize) -> Vec<usize> {
        (0..self.queries.len())
            .filter(|&i| self.queries[i].db == db)
            .collect()
    }

    /// `FACT` lines that load database `db` whole, `chunk` points each.
    pub fn load_lines(&self, db: usize, chunk: usize) -> Vec<String> {
        let d = &self.dbs[db];
        let n = d.consts.len();
        (0..n)
            .step_by(chunk)
            .map(|lo| format!("FACT {}", d.fragment(&self.preds, lo, (lo + chunk).min(n))))
            .collect()
    }

    /// `pred P(ord); ...` for every predicate of the workload.
    pub fn declarations(&self) -> String {
        let decls: Vec<String> = self
            .preds
            .names()
            .iter()
            .map(|n| format!("pred {n}(ord);"))
            .collect();
        format!("FACT {}", decls.join(" "))
    }

    fn entail(&self, qid: usize, inline: bool) -> Op {
        let q = &self.queries[qid];
        let target = if inline { &q.text } else { &q.name };
        Op::read(
            Kind::Entail,
            format!("ENTAIL {target}"),
            !inline,
            Check::Verdict(qid),
        )
    }

    fn countermodel(&self, qid: usize) -> Op {
        Op::read(
            Kind::Countermodel,
            format!("COUNTERMODEL {}", self.queries[qid].name),
            true,
            Check::Countermodel(qid),
        )
    }

    fn batch(&self, qids: &[usize]) -> Op {
        let names: Vec<&str> = qids
            .iter()
            .map(|&i| self.queries[i].name.as_str())
            .collect();
        Op::read(
            Kind::Batch,
            format!("BATCH {}", names.join(" ")),
            true,
            Check::Batch(qids.to_vec()),
        )
    }
}

/// A conjunctive query that is a chain of single labels.
fn seq_query(labels: &[Labels]) -> Query {
    let mut d = Dag::default();
    for (i, &l) in labels.iter().enumerate() {
        d.add_vertex(l);
        if i > 0 {
            d.lt(i - 1, i);
        }
    }
    Query::conjunctive(d)
}

/// `a < b, a < c, b < d, c < d`: two paths, so Lemma 4.1 (`paths`).
fn diamond(l: [Labels; 4]) -> Query {
    let mut d = Dag::default();
    for x in l {
        d.add_vertex(x);
    }
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        d.lt(u, v);
    }
    Query::conjunctive(d)
}

/// `levels` levels of two variables, each level entirely below the
/// next: 2^levels paths, past the Lemma 4.1 threshold of 32, so it
/// routes to Theorem 4.7 (`bounded-width`).
fn ladder(labels: &[[Labels; 2]]) -> Query {
    let mut d = Dag::default();
    for (i, pair) in labels.iter().enumerate() {
        d.add_vertex(pair[0]);
        d.add_vertex(pair[1]);
        if i > 0 {
            for u in [2 * i - 2, 2 * i - 1] {
                for v in [2 * i, 2 * i + 1] {
                    d.lt(u, v);
                }
            }
        }
    }
    Query::conjunctive(d)
}

/// The five query shapes the two side databases are checked with, one
/// per engine route family.
fn side_queries(m: &mut Model, db: usize, p: &[Labels; 4], tag: &str) {
    let [a, b, c, d] = *p;
    m.add_query(&format!("{tag}seq"), db, seq_query(&[a, b, c]), None);
    m.add_query(&format!("{tag}paths"), db, diamond([a, b, c, d]), None);
    m.add_query(
        &format!("{tag}ladder"),
        db,
        ladder(&[[a, b], [c, d], [a, a], [b, c], [d, a], [b, b]]),
        None,
    );
    let mut two = seq_query(&[a, c]);
    two.disjuncts.push(seq_query(&[c, a]).disjuncts.remove(0));
    m.add_query(&format!("{tag}disj"), db, two, None);
    let mut three = seq_query(&[b, d]);
    three.disjuncts.push(seq_query(&[d, b]).disjuncts.remove(0));
    three
        .disjuncts
        .push(seq_query(&[a | b]).disjuncts.remove(0));
    m.add_query(&format!("{tag}disj3"), db, three, None);
}

/// Two side databases of seven points, with and without one `!=`,
/// whose verdicts the enumeration oracle decides.
fn side_dbs(m: &mut Model, rng: &mut Rng) {
    let p: [Labels; 4] = [0, 1, 2, 3].map(|i| m.preds.bit(&format!("P{i}")));
    for (tag, ne) in [("s", false), ("t", true)] {
        let db = m.dbs.len();
        let mut s = DbModel::new(&format!("side_{tag}"));
        for i in 0..7 {
            s.point(&format!("{tag}{i}"), p[rng.below(4)]);
        }
        // Two short chains and a loose point.
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            s.dag.lt(u, v);
        }
        if rng.below(2) == 0 {
            s.dag.lt(0, 4);
        }
        if ne {
            s.dag.ne.push((2, 6));
        }
        m.dbs.push(s);
        side_queries(m, db, &p, &format!("{tag}_"));
    }
}

/// Generates round `r` of the measured sequence.
type RoundGen = Box<dyn FnMut(&Model, &mut Rng, usize) -> Vec<Op>>;

/// A workload: its model, set-up script and measured rounds.
pub struct Workload {
    pub model: Model,
    /// The database the measured phase runs against.
    pub main: usize,
    /// Rounds per `--seconds` second.
    pub rounds_per_second: f64,
    /// Every run of this many consecutive rounds (from round 0) sends
    /// the same mix of operations.
    pub period: usize,
    /// Equal slices of the plain replay that the end-to-end read and
    /// throughput figures take their median over (1: the whole run).
    pub slices: usize,
    /// Points per `FACT` fragment when loading `main`.
    pub load_chunk: usize,
    /// Structural fresh-point writes of the set-up.
    pub setup_writes: Vec<(String, u64, Write)>,
    gen: RoundGen,
    rng: Rng,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "monadic-read" => Some(monadic_read(seed)),
            "disjunctive-rw" => Some(disjunctive_rw(seed)),
            _ => None,
        }
    }

    /// Round `r` of the measured sequence (rounds are generated in order).
    pub fn round(&mut self, r: usize) -> Vec<Op> {
        (self.gen)(&self.model, &mut self.rng, r)
    }

    /// The fixed number of rounds a `seconds`-long run replays: a whole
    /// number of periods in every slice.
    pub fn rounds(&self, seconds: u64) -> usize {
        let unit = self.period * self.slices;
        let want = seconds as f64 * self.rounds_per_second / unit as f64;
        (want.ceil() as usize).max(1) * unit
    }
}

/// Chains `0..k` of `n` points whose labels come from the fixed
/// `layout` generator, indexed into `labels`, interned in the order
/// `order`.
fn fixed_chains(
    db: &mut DbModel,
    k: usize,
    n: usize,
    labels: &[Labels],
    layout: &mut Rng,
    order: &[usize],
) -> Vec<Vec<usize>> {
    let draws: Vec<Vec<usize>> = (0..k)
        .map(|_| (0..n).map(|_| layout.below(labels.len())).collect())
        .collect();
    let mut chains = vec![Vec::new(); k];
    for &c in order {
        for j in 0..n {
            let v = db.point(&format!("c{c}_{j}"), labels[draws[c][j]]);
            if j > 0 {
                db.dag.lt(chains[c][j - 1], v);
            }
            chains[c].push(v);
        }
    }
    chains
}

/// A seed-drawn permutation of `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut v);
    v
}

/// Queries planted inside chain `vs` (certain: every model embeds the
/// chain) and queries whose first letter is marker `ma` and last is
/// marker `mb` of another chain (not certain: the model that puts
/// `mb`'s chain wholly before `ma`'s refutes them).
struct Planted {
    seq_certain: Vec<usize>,
    seq_refuted: Vec<usize>,
    paths_certain: usize,
    paths_refuted: usize,
}

fn plant(
    m: &mut Model,
    db: usize,
    vs: &[usize],
    at: usize,
    markers: (Labels, Labels),
    tag: &str,
) -> Planted {
    let lab = |m: &Model, i: usize| m.dbs[db].dag.labels[vs[i]];
    let (ma, mb) = markers;
    let s1 = seq_query(&[lab(m, at), lab(m, at + 3), lab(m, at + 7)]);
    let s2 = seq_query(&[
        lab(m, at + 1),
        lab(m, at + 2),
        lab(m, at + 5),
        lab(m, at + 6),
    ]);
    let d = diamond([
        lab(m, at + 8),
        lab(m, at + 9),
        lab(m, at + 10),
        lab(m, at + 11),
    ]);
    let r1 = seq_query(&[ma, mb]);
    let r2 = seq_query(&[ma, lab(m, at), mb]);
    let rd = diamond([ma, lab(m, at + 1), lab(m, at + 2), mb]);
    Planted {
        seq_certain: vec![
            m.add_query(&format!("{tag}s1"), db, s1, Some(true)),
            m.add_query(&format!("{tag}s2"), db, s2, Some(true)),
        ],
        seq_refuted: vec![
            m.add_query(&format!("{tag}r1"), db, r1, Some(false)),
            m.add_query(&format!("{tag}r2"), db, r2, Some(false)),
        ],
        paths_certain: m.add_query(&format!("{tag}p1"), db, d, Some(true)),
        paths_refuted: m.add_query(&format!("{tag}pr"), db, rd, Some(false)),
    }
}

/// A ladder whose first variable carries the label of `vs[at]` and
/// whose other variables are unlabelled: the twelve chain points from
/// `at` on realise it, so it is certain by construction. (Labelling
/// more variables multiplies the Theorem 4.7 search by 10–80× at this
/// size.)
fn planted_ladder(m: &Model, db: usize, vs: &[usize], at: usize) -> Query {
    let mut levels = vec![[0; 2]; 6];
    levels[0][0] = m.dbs[db].dag.labels[vs[at]];
    ladder(&levels)
}

/// 8 observer chains × 2,048 points, monadic labels, read-only.
///
/// The layout (labels, marker positions, planted patterns and the
/// labels of the fresh points) comes from a fixed generator; the seed
/// permutes predicate and marker names, the interning order of the
/// chains and the order of each round. With seeded layouts, ten runs on
/// ten seeds spread twice as wide as ten runs on one seed (0.18 against
/// 0.09 on ops/s), so a seeded layout would measure the layout, not the
/// program.
fn monadic_read(seed: u64) -> Workload {
    const K: usize = 8;
    const N: usize = 2048;
    const FRESH: usize = 256;
    let mut rng = Rng::new(seed);
    let mut layout = Rng::new(0x5e9_c4a1);
    let mut m = Model::default();
    let p: Vec<Labels> = permutation(4, &mut rng)
        .iter()
        .map(|i| m.preds.bit(&format!("P{i}")))
        .collect();
    let markers: Vec<Labels> = permutation(K, &mut rng)
        .iter()
        .map(|i| m.preds.bit(&format!("M{i}")))
        .collect();
    side_dbs(&mut m, &mut rng);
    let main = m.dbs.len();
    m.dbs.push(DbModel::new("m"));
    let order = permutation(K, &mut rng);
    let chains = fixed_chains(&mut m.dbs[main], K, N, &p, &mut layout, &order);
    for (vs, &marker) in chains.iter().zip(&markers) {
        let at = N / 4 + layout.below(N / 2);
        m.dbs[main].dag.labels[vs[at]] = marker;
    }
    let (ca, cb) = (layout.below(K), layout.below(K - 1));
    let cb = if cb >= ca { cb + 1 } else { cb };
    let host = layout.below(K);
    let at = 16 + layout.below(N / 8);
    let planted = plant(
        &mut m,
        main,
        &chains[host],
        at,
        (markers[ca], markers[cb]),
        "q",
    );
    let lq = planted_ladder(&m, main, &chains[(host + 1) % K], N / 2);
    let ladder_q = m.add_query("qb", main, lq, Some(true));
    // Set-up: 64-point fragments, then fresh points appended round-robin.
    let mut setup_writes = Vec::new();
    let mut last: Vec<String> = (0..K).map(|c| format!("c{c}_{}", N - 1)).collect();
    for i in 0..FRESH {
        let c = i % K;
        let name = format!("c{c}_{}", N + i / K);
        let l = p[layout.below(4)];
        let line = format!(
            "FACT {} < {name}; {}({name});",
            last[c],
            m.preds.name(l.trailing_zeros() as usize)
        );
        let after = std::mem::replace(&mut last[c], name.clone());
        setup_writes.push((
            line,
            2,
            Write::Fresh {
                after,
                name,
                labels: l,
            },
        ));
    }
    let pl = planted;
    // Per round: 28 PTIME reads, one COUNTERMODEL or BATCH (3.4% of
    // reads), and every 16th round one Theorem 4.7 read (0.2%), so the
    // read p99 falls inside the COUNTERMODEL/BATCH class rather than on
    // a class boundary.
    let gen = move |m: &Model, rng: &mut Rng, r: usize| {
        let mut ops = Vec::new();
        for _ in 0..8 {
            for &q in &pl.seq_certain {
                ops.push(m.entail(q, false));
            }
        }
        for &q in pl.seq_refuted.iter().chain([&pl.paths_refuted]) {
            ops.push(m.entail(q, false));
        }
        for _ in 0..6 {
            ops.push(m.entail(pl.paths_certain, false));
        }
        ops.push(m.entail(pl.seq_certain[r % 2], true));
        ops.push(m.entail(pl.seq_refuted[r % 2], true));
        ops.push(m.entail(pl.paths_certain, true));
        ops.push(match r % 4 {
            0 => m.countermodel(pl.seq_refuted[r / 4 % 2]),
            2 => m.countermodel(pl.paths_refuted),
            _ => m.batch(&[
                pl.seq_certain[0],
                pl.seq_refuted[0],
                pl.paths_certain,
                pl.paths_refuted,
            ]),
        });
        if r.is_multiple_of(16) {
            ops.push(m.entail(ladder_q, false));
        }
        rng.shuffle(&mut ops);
        ops
    };
    Workload {
        model: m,
        main,
        rounds_per_second: 100.0,
        period: 16,
        slices: 20,
        load_chunk: 64,
        setup_writes,
        gen: Box::new(gen),
        rng: Rng::new(seed.wrapping_add(1)),
    }
}

/// 4 chains × 128 points under a Theorem 5.3 registry, reads
/// interleaved with label, edge and fresh-point writes.
///
/// The layout and the write targets come from a fixed generator; the
/// seed permutes predicate names and the interning order of the chains.
/// Cold Theorem 5.3 searches after a write vary 2–3× between random
/// layouts of this size, so a seeded layout would measure the layout,
/// not the program.
fn disjunctive_rw(seed: u64) -> Workload {
    const K: usize = 4;
    const N: usize = 128;
    let mut rng = Rng::new(seed);
    let mut layout = Rng::new(0xd15_5eed);
    let mut m = Model::default();
    let p: Vec<Labels> = permutation(4, &mut rng)
        .iter()
        .map(|i| m.preds.bit(&format!("P{i}")))
        .collect();
    let l: Vec<Labels> = permutation(4, &mut rng)
        .iter()
        .map(|i| m.preds.bit(&format!("L{i}")))
        .collect();
    side_dbs(&mut m, &mut rng);
    let main = m.dbs.len();
    m.dbs.push(DbModel::new("d"));
    let order = permutation(K, &mut rng);
    let chains = fixed_chains(&mut m.dbs[main], K, N, &p, &mut layout, &order);
    // Certain by construction: chain 0 holds P0 before P2, chain 1 P1
    // before P3, so one disjunct of each holds in every model.
    m.dbs[main].dag.labels[chains[0][10]] = p[0];
    m.dbs[main].dag.labels[chains[0][20]] = p[2];
    m.dbs[main].dag.labels[chains[1][10]] = p[1];
    m.dbs[main].dag.labels[chains[1][20]] = p[3];
    let two = |a: Labels, b: Labels| {
        let mut q = seq_query(&[a, b]);
        q.disjuncts.push(seq_query(&[b, a]).disjuncts.remove(0));
        q
    };
    let da = m.add_query("da", main, two(p[0], p[2]), Some(true));
    let db = m.add_query("db", main, two(p[1], p[3]), Some(true));
    // Not certain by construction: every disjunct needs one point with
    // two P labels, and each point carries exactly one (writes only add
    // L labels), so any strict linear extension refutes them.
    let dc = m.add_query("dc", main, two(p[0] | p[1], p[2] | p[3]), Some(false));
    let mut q3 = two(p[0] | p[2], p[1] | p[3]);
    q3.disjuncts
        .push(seq_query(&[p[0] | p[3]]).disjuncts.remove(0));
    let dd = m.add_query("dd", main, q3, Some(false));
    // A fixed pool of cross-chain edges, each from index i to index
    // i + 64 or later of another chain, so every edge points forward in
    // index and the database stays acyclic. Later rounds re-assert them.
    let mut pool = Vec::new();
    for _ in 0..64 {
        let (a, b) = (layout.below(K), layout.below(K));
        let i = layout.below(N - 64);
        let j = i + 64 + layout.below(N - 64 - i);
        if a != b {
            pool.push((format!("c{a}_{i}"), format!("c{b}_{j}")));
        }
    }
    let mut len = [N; K];
    let mut edge_next = 0;
    // Rounds run in a fixed order, so every run spaces the expensive
    // writes alike; write targets come from the fixed layout generator.
    let gen = move |m: &Model, _: &mut Rng, r: usize| {
        let layout = &mut layout;
        let mut ops = vec![
            m.entail(da, false),
            m.entail(db, false),
            m.entail(dc, false),
            m.entail(dd, false),
            m.batch(&[da, db, dc, dd]),
            m.countermodel(if r.is_multiple_of(2) { dc } else { dd }),
            m.entail(if r.is_multiple_of(2) { da } else { dc }, true),
        ];
        for _ in 0..4 {
            let c = layout.below(K);
            let name = format!("c{c}_{}", layout.below(len[c]));
            let lab = l[layout.below(4)];
            ops.push(Op::fact(
                format!(
                    "FACT {}({name});",
                    m.preds.name(lab.trailing_zeros() as usize)
                ),
                1,
                Write::Label(name, lab),
            ));
        }
        // An edge write evicts pairs and a fresh point rebuilds the
        // scaffold: each costs ~100× a label write, so one of each per
        // four rounds.
        if r % 4 == 1 {
            let (u, v) = pool[edge_next % pool.len()].clone();
            edge_next += 1;
            ops.push(Op::fact(format!("FACT {u} < {v};"), 1, Write::Edge(u, v)));
        }
        if r % 4 == 3 {
            let c = r / 4 % K;
            let (after, name) = (format!("c{c}_{}", len[c] - 1), format!("c{c}_{}", len[c]));
            len[c] += 1;
            let lab = p[layout.below(4)];
            ops.push(Op::fact(
                format!(
                    "FACT {after} < {name}; {}({name});",
                    m.preds.name(lab.trailing_zeros() as usize)
                ),
                2,
                Write::Fresh {
                    after,
                    name,
                    labels: lab,
                },
            ));
        }
        ops
    };
    Workload {
        model: m,
        main,
        rounds_per_second: 4.0,
        period: 4,
        slices: 1,
        load_chunk: N,
        setup_writes: Vec::new(),
        gen: Box::new(gen),
        rng: Rng::new(seed.wrapping_add(1)),
    }
}
