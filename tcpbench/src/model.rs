//! The benchmark's own view of databases, queries and countermodel
//! words, independent of the program under test: a greedy matcher for
//! monadic order dags on words, and an exhaustive oracle that decides
//! certainty on small databases by enumerating their linear orders.

/// A set of monadic predicates, one bit per predicate id.
pub type Labels = u64;

/// Predicate names, interned to bit positions.
#[derive(Debug, Clone, Default)]
pub struct Preds {
    names: Vec<String>,
}

impl Preds {
    /// The id of `name`, interning it on first use.
    pub fn id(&mut self, name: &str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i;
        }
        assert!(self.names.len() < 64, "at most 64 predicates");
        self.names.push(name.to_string());
        self.names.len() - 1
    }

    /// The one-predicate label set of `name`.
    pub fn bit(&mut self, name: &str) -> Labels {
        1 << self.id(name)
    }

    /// The name of predicate `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Every interned name, in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Parses a `word: {A,B} {} {C}` countermodel body into label sets.
    /// Unknown predicate names are an error: the benchmark knows every
    /// predicate it loaded.
    pub fn parse_word(&self, body: &str) -> Result<Vec<Labels>, String> {
        let text = body
            .trim()
            .strip_prefix("word:")
            .ok_or_else(|| format!("countermodel body is not a word: {body:.80}"))?;
        let mut word = Vec::new();
        for tok in text.split_whitespace() {
            let inner = tok
                .strip_prefix('{')
                .and_then(|t| t.strip_suffix('}'))
                .ok_or_else(|| format!("bad word position `{tok}`"))?;
            let mut l: Labels = 0;
            for name in inner.split(',').filter(|n| !n.is_empty()) {
                let i = self
                    .names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| format!("unknown predicate `{name}` in word"))?;
                l |= 1 << i;
            }
            word.push(l);
        }
        Ok(word)
    }
}

/// A monadic order dag: a database (vertices are constants) or one
/// conjunctive query (vertices are variables). Edges are `(u, v, strict)`
/// for `u < v` (strict) or `u <= v`; `ne` pairs are `u != v`.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    pub labels: Vec<Labels>,
    pub edges: Vec<(usize, usize, bool)>,
    pub ne: Vec<(usize, usize)>,
}

impl Dag {
    pub fn add_vertex(&mut self, labels: Labels) -> usize {
        self.labels.push(labels);
        self.labels.len() - 1
    }

    pub fn lt(&mut self, u: usize, v: usize) {
        self.edges.push((u, v, true));
    }

    fn incoming(&self) -> Vec<Vec<(usize, bool)>> {
        let mut inc = vec![Vec::new(); self.labels.len()];
        for &(u, v, strict) in &self.edges {
            inc[v].push((u, strict));
        }
        inc
    }

    /// A topological order (Kahn), or `None` on a cycle.
    pub fn topo(&self) -> Option<Vec<usize>> {
        let n = self.labels.len();
        let mut indeg = vec![0usize; n];
        let mut out = vec![Vec::new(); n];
        for &(u, v, _) in &self.edges {
            indeg[v] += 1;
            out[u].push(v);
        }
        let mut order: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut i = 0;
        while i < order.len() {
            for &w in &out[order[i]] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    order.push(w);
                }
            }
            i += 1;
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the dag maps homomorphically into `word`: every vertex
    /// to a position whose label set contains its labels, `<` edges to
    /// increasing positions, `<=` edges to non-decreasing ones, and
    /// `!=` pairs to distinct positions. Placing each vertex at its
    /// earliest feasible position, in topological order, is exact on a
    /// linear order because every constraint is a lower bound. `!=`
    /// pairs must join two isolated vertices (all this benchmark
    /// generates).
    pub fn embeds(&self, word: &[Labels]) -> bool {
        let Some(order) = self.topo() else {
            return false;
        };
        let inc = self.incoming();
        let mut in_ne = vec![false; self.labels.len()];
        for &(u, v) in &self.ne {
            for w in [u, v] {
                assert!(
                    inc[w].is_empty() && !self.edges.iter().any(|e| e.0 == w),
                    "`!=` is only checked between isolated vertices"
                );
                in_ne[w] = true;
            }
        }
        let mut pos = vec![0usize; self.labels.len()];
        for &v in &order {
            if in_ne[v] {
                continue;
            }
            let lb = inc[v]
                .iter()
                .map(|&(u, strict)| pos[u] + strict as usize)
                .max()
                .unwrap_or(0);
            match (lb..word.len()).find(|&p| word[p] & self.labels[v] == self.labels[v]) {
                Some(p) => pos[v] = p,
                None => return false,
            }
        }
        self.ne.iter().all(|&(u, v)| {
            let fits = |w: usize| {
                (0..word.len())
                    .filter(|&p| word[p] & self.labels[w] == self.labels[w])
                    .take(2)
                    .collect::<Vec<_>>()
            };
            let (cu, cv) = (fits(u), fits(v));
            match (cu.len(), cv.len()) {
                (0, _) | (_, 0) => false,
                (1, 1) => cu != cv,
                _ => true,
            }
        })
    }

    /// Renders the dag as a database fragment over constants `names`.
    pub fn fact_text(&self, preds: &Preds, names: &[String]) -> String {
        let mut out = String::new();
        for (v, &l) in self.labels.iter().enumerate() {
            for p in bits(l) {
                out.push_str(&format!("{}({}); ", preds.name(p), names[v]));
            }
        }
        for &(u, v, strict) in &self.edges {
            let op = if strict { "<" } else { "<=" };
            out.push_str(&format!("{} {op} {}; ", names[u], names[v]));
        }
        for &(u, v) in &self.ne {
            out.push_str(&format!("{} != {}; ", names[u], names[v]));
        }
        out
    }
}

/// The predicate ids in a label set, ascending.
pub fn bits(l: Labels) -> impl Iterator<Item = usize> {
    (0..64).filter(move |i| l >> i & 1 == 1)
}

/// A positive existential monadic query in DNF.
#[derive(Debug, Clone)]
pub struct Query {
    pub disjuncts: Vec<Dag>,
}

impl Query {
    pub fn conjunctive(d: Dag) -> Query {
        Query { disjuncts: vec![d] }
    }

    /// Whether the query is true in the model `word`.
    pub fn matches(&self, word: &[Labels]) -> bool {
        self.disjuncts.iter().any(|d| d.embeds(word))
    }

    /// Protocol text: `exists a b. P(a) & a < b & Q(b)`, disjuncts
    /// parenthesised and joined by `|`.
    pub fn text(&self, preds: &Preds) -> String {
        let parts: Vec<String> = self
            .disjuncts
            .iter()
            .map(|d| {
                let vars: Vec<String> = (0..d.labels.len()).map(|i| format!("v{i}")).collect();
                let mut atoms = Vec::new();
                for (v, &l) in d.labels.iter().enumerate() {
                    for p in bits(l) {
                        atoms.push(format!("{}({})", preds.name(p), vars[v]));
                    }
                }
                for &(u, v, strict) in &d.edges {
                    let op = if strict { "<" } else { "<=" };
                    atoms.push(format!("{} {op} {}", vars[u], vars[v]));
                }
                format!("exists {}. {}", vars.join(" "), atoms.join(" & "))
            })
            .collect();
        if parts.len() == 1 {
            parts.into_iter().next().unwrap()
        } else {
            parts
                .iter()
                .map(|p| format!("({p})"))
                .collect::<Vec<_>>()
                .join(" | ")
        }
    }
}

/// Decides `db |= q` for every query in `qs` by enumerating every weak
/// order of `db`'s points (the models up to the positive query's
/// indifference to repeated or empty positions). Exponential: only for
/// databases of at most eight points.
pub fn certain_by_enumeration(db: &Dag, qs: &[Query]) -> Vec<bool> {
    let n = db.labels.len();
    assert!(n <= 8, "the enumeration oracle takes at most 8 points");
    let mut certain = vec![true; qs.len()];
    let mut word = Vec::with_capacity(n);
    enumerate(db, (1u32 << n) - 1, &mut word, qs, &mut certain);
    certain
}

fn enumerate(db: &Dag, remaining: u32, word: &mut Vec<Labels>, qs: &[Query], certain: &mut [bool]) {
    if remaining == 0 {
        for (i, q) in qs.iter().enumerate() {
            if certain[i] && !q.matches(word) {
                certain[i] = false;
            }
        }
        return;
    }
    // Every non-empty subset of the remaining points may form the next
    // position.
    let mut s = remaining;
    while s != 0 {
        if block_ok(db, s, remaining) {
            let l = (0..db.labels.len())
                .filter(|&v| s >> v & 1 == 1)
                .fold(0, |l, v| l | db.labels[v]);
            word.push(l);
            enumerate(db, remaining & !s, word, qs, certain);
            word.pop();
        }
        s = (s - 1) & remaining;
    }
}

/// Whether the points of `s` may share the next position, given that
/// exactly the points outside `remaining` sit at earlier positions.
fn block_ok(db: &Dag, s: u32, remaining: u32) -> bool {
    let inside = |v: usize| s >> v & 1 == 1;
    let later = |v: usize| remaining >> v & 1 == 1;
    db.edges.iter().all(|&(u, v, strict)| {
        // Nothing in the block may have a predecessor still to come, and
        // a `<` predecessor may not share the block.
        !(inside(v) && later(u) && (strict || !inside(u)))
    }) && db.ne.iter().all(|&(u, v)| !(inside(u) && inside(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(preds: &mut Preds, labels: &[&str]) -> Dag {
        let mut d = Dag::default();
        for (i, l) in labels.iter().enumerate() {
            let b = preds.bit(l);
            d.add_vertex(b);
            if i > 0 {
                d.lt(i - 1, i);
            }
        }
        d
    }

    #[test]
    fn word_parse_round_trips_labels() {
        let mut p = Preds::default();
        let (a, b) = (p.bit("A"), p.bit("B"));
        assert_eq!(
            p.parse_word("word: {A,B} {} {B}\n").unwrap(),
            vec![a | b, 0, b]
        );
        assert!(p.parse_word("word: {C}").is_err());
        assert!(p.parse_word("points 0..3").is_err());
    }

    #[test]
    fn matcher_accepts_a_match_and_rejects_a_wrong_word() {
        let mut p = Preds::default();
        let q = Query::conjunctive(chain(&mut p, &["A", "B"]));
        let (a, b) = (p.bit("A"), p.bit("B"));
        assert!(q.matches(&[a, 0, b]));
        // `a < b` needs two positions: one position holding both fails.
        assert!(!q.matches(&[a | b]));
        assert!(!q.matches(&[b, a]));
    }

    #[test]
    fn non_strict_edges_may_share_a_position() {
        let mut p = Preds::default();
        let mut d = chain(&mut p, &["A", "B"]);
        d.edges[0].2 = false;
        let (a, b) = (p.bit("A"), p.bit("B"));
        assert!(Query::conjunctive(d).matches(&[a | b]));
    }

    #[test]
    fn countermodel_check_rejects_a_word_missing_a_chain() {
        // The database is one chain A < B < A; a countermodel word must
        // embed it in order.
        let mut p = Preds::default();
        let db = chain(&mut p, &["A", "B", "A"]);
        let (a, b) = (p.bit("A"), p.bit("B"));
        assert!(db.embeds(&[a, b, 0, a]));
        assert!(!db.embeds(&[a, a, b]));
    }

    #[test]
    fn ne_pairs_need_distinct_positions() {
        let mut p = Preds::default();
        let z = p.bit("Z");
        let mut d = Dag::default();
        let (u, v) = (d.add_vertex(z), d.add_vertex(z));
        d.ne.push((u, v));
        assert!(!d.embeds(&[z]));
        assert!(d.embeds(&[z, 0, z]));
    }

    #[test]
    fn oracle_decides_small_databases() {
        // Two unordered points A and B: `A < B` is not certain, the
        // disjunction `A < B | B < A | A&B` is.
        let mut p = Preds::default();
        let (a, b) = (p.bit("A"), p.bit("B"));
        let mut db = Dag::default();
        db.add_vertex(a);
        db.add_vertex(b);
        let ab = Query::conjunctive(chain(&mut p, &["A", "B"]));
        let ba = Query::conjunctive(chain(&mut p, &["B", "A"]));
        let mut both = Dag::default();
        both.add_vertex(a | b);
        let mut either = ab.clone();
        either.disjuncts.push(ba.disjuncts[0].clone());
        either.disjuncts.push(both);
        let v = certain_by_enumeration(&db, &[ab.clone(), ba, either.clone()]);
        assert_eq!(v, vec![false, false, true]);
        // Ordering the points makes `A < B` certain; a `!=` removes the
        // merged model, so `A < B | B < A` becomes certain.
        let mut ordered = db.clone();
        ordered.lt(0, 1);
        assert_eq!(
            certain_by_enumeration(&ordered, std::slice::from_ref(&ab)),
            vec![true]
        );
        let mut apart = db.clone();
        apart.ne.push((0, 1));
        let mut two = ab.clone();
        two.disjuncts.push(chain(&mut p, &["B", "A"]));
        assert_eq!(certain_by_enumeration(&apart, &[two.clone()]), vec![true]);
        assert_eq!(certain_by_enumeration(&db, &[two]), vec![false]);
    }
}
