//! Route choice: which decision procedure an evaluation runs.
//!
//! The paper picks its procedure from the shape of the query and the
//! database — `SEQ` for a sequential word (Lemma 4.2), `Paths(Φ)` for
//! few paths (Lemma 4.1), Thm 4.7 for the rest of the conjunctive
//! queries, Thm 5.3 for disjunctions, and §7 when `!=` is in play.
//! `choose` is that policy, written down once. The executor, `EXPLAIN`
//! ([`crate::Engine::explain_route`]) and the `PREPARE` reply
//! ([`crate::PreparedQuery::plan`]) all read it, so a route named before
//! an evaluation is the route the evaluation takes.
//!
//! The executor records the route it dispatches to in a thread-local
//! cell, like [`indord_core::counters`]: an evaluation runs
//! start-to-finish on one thread, and the serving layer collects the
//! route with [`take`] right after, to label its per-route latency
//! histograms and `TRACE` output.

use crate::engine::Strategy;
use crate::ineq;
use crate::prepared::PreparedQuery;
use indord_core::error::{CoreError, Result, Span};
use std::cell::Cell;

/// The decision procedure an evaluation dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// The empty (false) query — decided by consistency alone.
    Empty,
    /// An object-part-only disjunct held; no order reasoning ran.
    Object,
    /// `SEQ` on a sequential flexi-word (Lemma 4.2).
    Seq,
    /// The `Paths(Φ)` decomposition (Lemma 4.1).
    Paths,
    /// The width-bounded product search (Thm 4.7).
    BoundedWidth,
    /// The Thm 5.3 disjunctive scaffold search.
    Disjunctive,
    /// The §7 `!=` route (expansion + restricted Thm 5.3 search).
    Ne,
    /// Minimal-model enumeration — pinned, `!=` past the expansion
    /// caps, no surviving disjunct, or an n-ary query or database.
    Naive,
}

impl Route {
    /// Stable lowercase label, used as the `route` dimension of the
    /// serving metrics and in `TRACE`/`EXPLAIN` output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Route::Empty => "empty",
            Route::Object => "object",
            Route::Seq => "seq",
            Route::Paths => "paths",
            Route::BoundedWidth => "bounded-width",
            Route::Disjunctive => "disjunctive",
            Route::Ne => "ne",
            Route::Naive => "naive",
        }
    }

    /// Every route label, in rendering order (the metrics registry
    /// pre-creates one histogram per label so scrapes see stable rows).
    pub const ALL: [Route; 8] = [
        Route::Empty,
        Route::Object,
        Route::Seq,
        Route::Paths,
        Route::BoundedWidth,
        Route::Disjunctive,
        Route::Ne,
        Route::Naive,
    ];
}

/// Chooses the route of one evaluation of `pq`.
///
/// `survivors` lists the disjuncts whose object parts (§4) hold against
/// the database, or is `None` when the monadic pipeline does not apply
/// (an n-ary query or database, or a query prepared for pinned naive).
/// `db_has_ne` says whether the database carries `!=` constraints.
///
/// The pinned special-purpose algorithms (SEQ, Lemma 4.1, Thm 4.7) are
/// defined for `[<,<=]` inputs only; silently ignoring `!=` would give
/// wrong verdicts, so they refuse it. Pinned Disjunctive enforces
/// database `!=` natively through the sub-scaffold projection but still
/// refuses query `!=` atoms, which need the §7 expansion.
pub(crate) fn choose(
    pq: &PreparedQuery,
    survivors: Option<&[usize]>,
    db_has_ne: bool,
) -> Result<Route> {
    if pq.query.disjuncts.is_empty() {
        return Ok(Route::Empty);
    }
    let strategy = pq.strategy;
    let (Some(plan), Some(survivors)) = (&pq.monadic, survivors) else {
        return match strategy {
            Strategy::Auto | Strategy::Naive => Ok(Route::Naive),
            s => Err(refusal(format!(
                "strategy {s:?} requires monadic predicates"
            ))),
        };
    };
    if survivors.iter().any(|&i| plan.orders[i].is_empty()) {
        return Ok(Route::Object);
    }
    if survivors.is_empty() {
        // No disjunct can fire: any model of the database refutes.
        return Ok(Route::Naive);
    }
    let query_ne = survivors.iter().any(|&i| !plan.orders[i].ne.is_empty());
    let has_ne = db_has_ne || query_ne;
    let conjunctive = survivors.len() == 1;
    let refuse_ne = || -> Result<()> {
        if has_ne {
            return Err(refusal(format!(
                "{strategy:?} strategy requires [<,<=] inputs; use Auto or Naive for !="
            )));
        }
        Ok(())
    };
    let single = || -> Result<()> {
        if !conjunctive {
            return Err(refusal(format!(
                "{strategy:?} strategy requires a conjunctive query"
            )));
        }
        Ok(())
    };
    Ok(match strategy {
        Strategy::Naive => Route::Naive,
        Strategy::Seq => {
            refuse_ne()?;
            if !conjunctive || plan.compiled()[survivors[0]].flexi.is_none() {
                return Err(CoreError::NotSequential);
            }
            Route::Seq
        }
        Strategy::Paths => {
            refuse_ne()?;
            single()?;
            Route::Paths
        }
        Strategy::BoundedWidth => {
            refuse_ne()?;
            single()?;
            Route::BoundedWidth
        }
        Strategy::Disjunctive => {
            if query_ne {
                return Err(refusal(
                    "Disjunctive strategy requires [<,<=] queries; use Auto or Naive for query !="
                        .to_string(),
                ));
            }
            Route::Disjunctive
        }
        Strategy::Auto if has_ne => {
            if ineq::thm53_accepts(plan.ne_plan().expanded_len(survivors)) {
                Route::Ne
            } else {
                Route::Naive
            }
        }
        Strategy::Auto if conjunctive => plan.compiled()[survivors[0]].route,
        Strategy::Auto => Route::Disjunctive,
    })
}

/// The error a pinned strategy gives for an input it is not defined on.
fn refusal(message: String) -> CoreError {
    CoreError::Parse {
        span: Span::NONE,
        message,
    }
}

thread_local! {
    static LAST_ROUTE: Cell<Option<Route>> = const { Cell::new(None) };
}

/// Records the route the current evaluation dispatched to.
#[inline]
pub(crate) fn record(route: Route) {
    LAST_ROUTE.with(|c| c.set(Some(route)));
}

/// Takes the route recorded by the most recent evaluation on this
/// thread, clearing it. `None` when nothing ran since the last take.
#[must_use]
pub fn take() -> Option<Route> {
    LAST_ROUTE.with(Cell::take)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_records_win_and_take_clears() {
        record(Route::Disjunctive);
        record(Route::Naive);
        assert_eq!(take(), Some(Route::Naive));
        assert_eq!(take(), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Route::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(labels.len(), Route::ALL.len());
    }
}
