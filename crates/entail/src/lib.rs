//! # indord-entail
//!
//! Entailment engines for indefinite order databases, implementing every
//! decision procedure of van der Meyden's paper:
//!
//! | module | algorithm | paper source | complexity |
//! |---|---|---|---|
//! | [`seq`] | `SEQ` for sequential monadic queries | Fig. 6 / Lemma 4.2 | `O(\|D\|·\|p\|·\|Pred\|)` |
//! | [`paths`] | conjunctive monadic via `Paths(Φ)` | Lemma 4.1 / Cor. 4.4 | linear data complexity |
//! | [`bounded`] | conjunctive monadic, width-`k` databases | Thm. 4.7 | `O(\|D\|^{k+1}·\|Φ\|)` |
//! | [`disjunctive`] | disjunctive monadic + countermodel enumeration | Thm. 5.3 | `O(\|D\|^{2k}·\|Pred\|·Π\|Φᵢ\|)` |
//! | [`modelcheck`] | `M \|= Φ` for monadic queries | Cor. 5.1 | `O(\|M\|·\|Φ\|·\|Pred\|)` |
//! | [`naive`] | minimal-model enumeration (reference oracle) | Cor. 2.9 / §3 | exponential |
//! | [`ineq`] | `!=` extensions | §7 | see module docs |
//! | [`prepared`] | compile-once query artifacts | — | — |
//! | [`statespace`] | interned packed states for the Thm 5.3 search | — | — |
//! | [`route`] | the one route chooser (which procedure runs) | §4–§7 | — |
//! | [`engine`] | strategy-selecting facade, prepare/execute split | — | — |
//!
//! Engines that answer "not entailed" return a **countermodel**: a model of
//! the database falsifying the query, which callers can re-verify
//! independently with the model checkers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod disjunctive;
pub mod engine;
pub mod ineq;
pub mod modelcheck;
pub mod naive;
pub mod paths;
pub mod prepared;
pub mod route;
pub mod seq;
pub mod statespace;
pub mod verdict;

pub use engine::{Engine, EntailOptions, Strategy};
pub use prepared::{DisjunctExplain, NeExplain, PreparedQuery};
pub use route::Route;
pub use verdict::MonadicVerdict;
