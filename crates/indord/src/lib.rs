//! # indord — querying indefinite data about linearly ordered domains
//!
//! A Rust implementation of the theory and algorithms of:
//!
//! > Ron van der Meyden, *"The Complexity of Querying Indefinite Data
//! > about Linearly Ordered Domains"*, PODS 1992; JCSS 54:113–135, 1997.
//!
//! An **indefinite order database** stores ground facts plus partial-order
//! constraints `u < v`, `u <= v` over unknown points of a linearly ordered
//! domain (time, positions, depths). Query answering is *certain-answer*:
//! `D |= Φ` holds when Φ is true in **every** linear order compatible with
//! the constraints.
//!
//! ```
//! use indord::prelude::*;
//!
//! let mut voc = Vocabulary::new();
//! // The embassy investigation of the paper's Example 1.1, in miniature:
//! // the guard saw A enter then leave before B entered; agent A claims
//! // B arrived while A was still inside.
//! let db = parse_database(&mut voc, "
//!     Enter(z1, A); Leave(z2, A); Enter(z3, B);
//!     z1 < z2 < z3;
//! ").unwrap();
//! let q = parse_query(&mut voc, "
//!     exists s t x. Enter(s, x) & s < t & Leave(t, x)
//! ").unwrap();
//! let engine = Engine::new(&voc);
//! assert!(engine.entails(&db, &q).unwrap().holds());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | `core` | databases, queries, order dags, models, flexi-words, parser |
//! | `entail` | all entailment engines (`SEQ`, paths, Thm 4.7, Thm 5.3, naive) |
//! | `semantics` | `Fin`/`Z`/`Q` order types and reductions (§2) |
//! | `wqo` | well-quasi-orders, compiled queries (§6) |
//! | `solvers` | SAT/QBF/DNF/colouring reference deciders |
//! | `reductions` | the paper's hardness constructions (§3, §4, §7) |
//! | `relalg` | conjunctive-query containment with inequalities (Klug) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use indord_core as core;
pub use indord_entail as entail;
pub use indord_reductions as reductions;
pub use indord_relalg as relalg;
pub use indord_semantics as semantics;
pub use indord_solvers as solvers;
pub use indord_wqo as wqo;

/// One-stop imports for applications.
pub mod prelude {
    pub use indord_core::parse::{parse_query_expr, parse_query_with_db};
    pub use indord_core::prelude::*;
    pub use indord_core::session::Session;
    pub use indord_entail::engine::Verdict;
    pub use indord_entail::{Engine, MonadicVerdict, PreparedQuery, Route, Strategy};
    pub use indord_semantics::{with_integrity_constraint, OrderType};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_round_trip() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        assert!(Engine::new(&voc).entails(&db, &q).unwrap().holds());
    }

    #[test]
    fn facade_prepared_round_trip() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        let engine = Engine::new(&voc);
        let session = Session::new(db);
        let prepared: PreparedQuery = engine.prepare(&q).unwrap();
        assert_eq!(prepared.plan().unwrap(), Route::Seq);
        assert!(engine
            .entails_prepared(&session, &prepared)
            .unwrap()
            .holds());
    }
}
