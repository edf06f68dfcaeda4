//! Checks on every reply, computed apart from the program: verdicts
//! known by construction, monotonicity under writes, and countermodel
//! words re-checked by the benchmark's own matcher.

use crate::gen::{Check, Model, Op};
use indord_server::protocol::Response;

pub struct Checker {
    /// The databases as the acknowledged writes left them.
    pub model: Model,
    certain_seen: Vec<bool>,
}

impl Checker {
    pub fn new(model: Model) -> Checker {
        Checker {
            certain_seen: vec![false; model.queries.len()],
            model,
        }
    }

    fn verdict(&mut self, qid: usize, got: bool) -> Result<(), String> {
        let q = &self.model.queries[qid];
        if let Some(want) = q.expect {
            if got != want {
                return Err(format!("{} answered {got}, {want} by construction", q.name));
            }
        }
        // Writes only add facts, so a certain answer stays certain.
        if self.certain_seen[qid] && !got {
            return Err(format!("{} reverted from CERTAIN", q.name));
        }
        self.certain_seen[qid] |= got;
        Ok(())
    }

    /// Checks the (non-error) reply to `op` on database `db`, and
    /// applies an acknowledged write to the model.
    pub fn reply(&mut self, op: &Op, db: usize, resp: &Response) -> Result<(), String> {
        match (&op.check, resp) {
            (Check::Inserted(n), Response::Ok(m)) => {
                if !m.starts_with(&format!("inserted {n} atoms")) {
                    return Err(format!("acknowledged `{m}`, expected {n} atoms"));
                }
                if let Some(w) = &op.write {
                    self.model.dbs[db].apply(w);
                }
                Ok(())
            }
            (Check::Verdict(q), Response::Verdict(v)) => self.verdict(*q, *v),
            (Check::Batch(qs), Response::Verdicts(vs)) => {
                if vs.len() != qs.len() {
                    return Err(format!("{} verdicts for {} queries", vs.len(), qs.len()));
                }
                for (&q, (name, v)) in qs.iter().zip(vs) {
                    if *name != self.model.queries[q].name {
                        return Err(format!("verdict for {name} out of order"));
                    }
                    self.verdict(q, *v)?;
                }
                Ok(())
            }
            (Check::Countermodel(q), Response::Verdict(true)) => self.verdict(*q, true),
            (Check::Countermodel(q), Response::Countermodel(body)) => {
                self.verdict(*q, false)?;
                let m = &self.model;
                let word = m.preds.parse_word(body)?;
                if m.queries[*q].q.matches(&word) {
                    return Err(format!(
                        "countermodel word satisfies {}",
                        m.queries[*q].name
                    ));
                }
                if !m.dbs[db].dag.embeds(&word) {
                    return Err("countermodel word is not a model of the database".into());
                }
                Ok(())
            }
            (_, other) => Err(format!("unexpected reply {}", other.render().trim_end())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{DbModel, Kind, Write};
    use crate::model::{Dag, Query};

    /// One chain `x0 < x1` labelled A, B; queries `A < B` (certain) and
    /// `B < A` (not certain), plus `A < B | B < A` with no known verdict.
    fn setup() -> Checker {
        let mut m = Model::default();
        let (a, b) = (m.preds.bit("A"), m.preds.bit("B"));
        let mut db = DbModel::new("d");
        let (u, v) = (db.point("x0", a), db.point("x1", b));
        db.dag.lt(u, v);
        m.dbs.push(db);
        let chain = |x, y| {
            let mut d = Dag::default();
            d.add_vertex(x);
            d.add_vertex(y);
            d.lt(0, 1);
            d
        };
        m.add_query("ab", 0, Query::conjunctive(chain(a, b)), Some(true));
        m.add_query("ba", 0, Query::conjunctive(chain(b, a)), Some(false));
        let either = Query {
            disjuncts: vec![chain(a, b), chain(b, a)],
        };
        m.add_query("either", 0, either, None);
        Checker::new(m)
    }

    fn op(kind: Kind, check: Check) -> Op {
        Op {
            line: String::new(),
            kind,
            prepared: true,
            check,
            write: None,
        }
    }

    fn word(text: &str) -> Response {
        Response::Countermodel(format!("word: {text}"))
    }

    #[test]
    fn rejects_a_verdict_that_contradicts_the_construction() {
        let mut c = setup();
        let ab = op(Kind::Entail, Check::Verdict(0));
        assert!(c.reply(&ab, 0, &Response::Verdict(true)).is_ok());
        assert!(c.reply(&ab, 0, &Response::Verdict(false)).is_err());
        let ba = op(Kind::Entail, Check::Verdict(1));
        assert!(c.reply(&ba, 0, &Response::Verdict(true)).is_err());
    }

    #[test]
    fn rejects_a_certain_verdict_that_reverts() {
        let mut c = setup();
        let q = op(Kind::Entail, Check::Verdict(2));
        assert!(c.reply(&q, 0, &Response::Verdict(false)).is_ok());
        assert!(c.reply(&q, 0, &Response::Verdict(true)).is_ok());
        assert!(c.reply(&q, 0, &Response::Verdict(false)).is_err());
    }

    #[test]
    fn rejects_wrong_batch_verdicts_and_order() {
        let mut c = setup();
        let b = op(Kind::Batch, Check::Batch(vec![0, 1]));
        let ok = Response::Verdicts(vec![("ab".into(), true), ("ba".into(), false)]);
        assert!(c.reply(&b, 0, &ok).is_ok());
        let wrong = Response::Verdicts(vec![("ab".into(), true), ("ba".into(), true)]);
        assert!(c.reply(&b, 0, &wrong).is_err());
        let swapped = Response::Verdicts(vec![("ba".into(), false), ("ab".into(), true)]);
        assert!(c.reply(&b, 0, &swapped).is_err());
    }

    #[test]
    fn rejects_a_wrong_countermodel_word() {
        let mut c = setup();
        let cm = op(Kind::Countermodel, Check::Countermodel(1));
        // A then B: a model of the chain where `B < A` fails.
        assert!(c.reply(&cm, 0, &word("{A} {B}")).is_ok());
        // Satisfies the query it should refute.
        assert!(c.reply(&cm, 0, &word("{A} {B} {A}")).is_err());
        // Refutes the query but is no model of the database.
        assert!(c.reply(&cm, 0, &word("{B}")).is_err());
        // A countermodel for a query certain by construction.
        let ab = op(Kind::Countermodel, Check::Countermodel(0));
        assert!(c.reply(&ab, 0, &word("{A} {B}")).is_err());
    }

    #[test]
    fn acknowledged_writes_update_the_model() {
        let mut c = setup();
        let b = c.model.preds.bit("B");
        let mut w = op(Kind::Fact, Check::Inserted(2));
        w.write = Some(Write::Fresh {
            after: "x1".into(),
            name: "x2".into(),
            labels: b,
        });
        assert!(c
            .reply(&w, 0, &Response::Ok("inserted 1 atoms (epoch 3)".into()))
            .is_err());
        assert_eq!(c.model.dbs[0].dag.labels.len(), 2);
        assert!(c
            .reply(&w, 0, &Response::Ok("inserted 2 atoms (epoch 3)".into()))
            .is_ok());
        assert_eq!(c.model.dbs[0].dag.labels.len(), 3);
        // The database is now A < B < B: a word missing the second B is
        // no longer a model.
        let cm = op(Kind::Countermodel, Check::Countermodel(1));
        assert!(c.reply(&cm, 0, &word("{A} {B}")).is_err());
        assert!(c.reply(&cm, 0, &word("{A} {B} {B}")).is_ok());
    }
}
