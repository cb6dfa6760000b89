//! Per-class attribute-similarity scoring.
//!
//! Each reconcilable class gets a comparator over *pooled* attribute values
//! (a pool is a single reference, or — under reference enrichment — the
//! union of a cluster's values). Scores live in `[0, 1]`; the engine merges
//! at [`crate::ReconConfig::threshold`], so the constants here are chosen to
//! leave genuinely ambiguous evidence (an initials-only name match, a
//! same-domain e-mail near-miss) *below* threshold, where association
//! evidence must tip the balance — the paper's central design point.

use semex_similarity::email::{email_matches_parsed_name, email_similarity};
use semex_similarity::name::{names_compatible, PersonName};
use semex_similarity::venue::venue_similarity;
use semex_similarity::{jaro_winkler, monge_elkan, normalized_damerau, title::title_similarity};
use std::borrow::Cow;

/// A pooled view of the attribute values the scorers compare.
#[derive(Debug, Clone)]
pub struct Pool<'a> {
    /// Person/organization/venue names.
    pub names: Vec<&'a str>,
    /// Pre-parsed person names, parallel to `names` when populated (the
    /// reference table parses each name exactly once; pools built by hand —
    /// e.g. in tests — may leave this empty and the scorer parses on the
    /// fly).
    pub parsed_names: Vec<&'a PersonName>,
    /// E-mail addresses.
    pub emails: Vec<&'a str>,
    /// Publication titles.
    pub titles: Vec<&'a str>,
    /// Venue abbreviations.
    pub abbrevs: Vec<&'a str>,
    /// Publication years: borrowed straight from a single reference's
    /// cached values (the hot singleton-scoring path allocates nothing),
    /// owned only when a multi-member cluster actually pools them.
    pub years: Cow<'a, [i64]>,
}

impl Default for Pool<'_> {
    fn default() -> Self {
        Pool {
            names: Vec::new(),
            parsed_names: Vec::new(),
            emails: Vec::new(),
            titles: Vec::new(),
            abbrevs: Vec::new(),
            years: Cow::Borrowed(&[]),
        }
    }
}

/// Parsed views of a pool's names: borrowed from the cache when available,
/// parsed here otherwise. Scoring a cached pool allocates nothing.
enum ParsedView<'p> {
    Cached(&'p [&'p PersonName]),
    Owned(Vec<PersonName>),
}

impl ParsedView<'_> {
    fn get(&self, i: usize) -> &PersonName {
        match self {
            ParsedView::Cached(s) => s[i],
            ParsedView::Owned(v) => &v[i],
        }
    }
}

fn parsed_views<'p>(pool: &'p Pool<'_>) -> ParsedView<'p> {
    if pool.parsed_names.len() == pool.names.len() {
        ParsedView::Cached(&pool.parsed_names)
    } else {
        ParsedView::Owned(pool.names.iter().map(|n| PersonName::parse(n)).collect())
    }
}

/// Score two Person pools.
///
/// Tiers: shared e-mail address ⇒ 1.0; same local-part on another domain ⇒
/// 0.85–0.9; exact/nickname-compatible full names ⇒ 0.84–0.95; an
/// initials-only name match is capped at 0.78 (below the default merge
/// threshold — ambiguous on purpose); an e-mail plausibly derived from the
/// other side's name ⇒ 0.74. Incompatible names never score above 0.4.
pub fn person_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let mut kernels = PoolKernels {
        a,
        b,
        parsed_a: parsed_views(a),
        parsed_b: parsed_views(b),
    };
    person_fold(
        &mut kernels,
        (a.names.len(), b.names.len()),
        (a.emails.len(), b.emails.len()),
    )
}

/// What comparing one person name with another contributes to
/// [`person_score`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NamePair {
    /// The name-channel score of the pair.
    pub score: f64,
    /// Whether the names are compatible (could denote one person).
    pub compatible: bool,
    /// Whether the names rule out one person (negative evidence).
    pub contradiction: bool,
}

/// Compare two person names, raw and parsed.
///
/// Name evidence comes with *negative* evidence: two spelt-out given names
/// that disagree (Maria vs. Michael) on compatible family names contradict
/// — the references cannot denote the same person, no matter how much
/// association evidence accumulates.
pub(crate) fn name_pair(na: &str, pa: &PersonName, nb: &str, pb: &PersonName) -> NamePair {
    if !names_compatible(pa, pb) {
        // Spelt-out given names disagreeing on the same family name
        // ("Maria Carey" / "Michael Carey") contradict; so do two
        // spelt-out, clearly different family names ("Nicholas Rossi" /
        // "Nicholas Kowalski").
        let mut contradiction = false;
        if let (Some(fa), Some(fb)) = (&pa.first, &pb.first) {
            if fa.chars().count() > 1
                && fb.chars().count() > 1
                && pa.last.is_some()
                && pa.last == pb.last
            {
                contradiction = true;
            }
        }
        if let (Some(la), Some(lb)) = (&pa.last, &pb.last) {
            if la.chars().count() >= 3
                && lb.chars().count() >= 3
                && !semex_similarity::name::last_names_compatible(la, lb)
            {
                contradiction = true;
            }
        }
        return NamePair {
            score: jaro_winkler(na, nb).min(0.4),
            compatible: false,
            contradiction,
        };
    }
    let s = match (&pa.first, &pb.first) {
        (Some(fa), Some(fb)) if fa == fb && fa.chars().count() > 1 => 0.92,
        (Some(fa), Some(fb)) if fa.chars().count() > 1 && fb.chars().count() > 1 => {
            // Nickname or typo'd given name.
            0.80 + 0.12 * jaro_winkler(fa, fb)
        }
        (Some(fa), Some(fb)) if fa.chars().count() == 1 && fb.chars().count() == 1 => {
            // Initial vs. initial ("R. Garcia" / "Garcia, R."): barely any
            // signal — could be any Garcia.
            0.72
        }
        (Some(_), Some(_)) => 0.78, // initial vs. spelt-out given name
        _ => 0.72,                  // a bare family name
    };
    NamePair {
        score: if pa.last == pb.last { s } else { s - 0.04 },
        compatible: true,
        contradiction: false,
    }
}

/// The pair comparisons [`person_fold`] consumes. `i` indexes the a-side
/// values and `j` the b-side ones.
pub(crate) trait PersonKernels {
    /// [`name_pair`] of a-side name `i` and b-side name `j`.
    fn name_pair(&mut self, i: usize, j: usize) -> NamePair;
    /// `email_similarity` of a-side e-mail `i` and b-side e-mail `j`.
    fn email_similarity(&mut self, i: usize, j: usize) -> f64;
    /// `email_matches_parsed_name` of one side's e-mail `e` and the other
    /// side's name `n`: the e-mail is the a-side's when `a_email` holds.
    fn email_matches_name(&mut self, a_email: bool, e: usize, n: usize) -> bool;
}

/// The person-scoring rules, over `names` and `emails` values per side and
/// the pair comparisons of `k`. Every step folds with a max or an "any", so
/// the score does not depend on the order of either side's values, nor on
/// repeated values.
pub(crate) fn person_fold(
    k: &mut impl PersonKernels,
    names: (usize, usize),
    emails: (usize, usize),
) -> f64 {
    // E-mail evidence.
    let mut best: f64 = 0.0;
    let mut email_best: f64 = 0.0;
    for i in 0..emails.0 {
        for j in 0..emails.1 {
            let s = k.email_similarity(i, j);
            if s >= 1.0 {
                return 1.0;
            }
            email_best = email_best.max(s);
            // Same local part on another domain is weak: "ann@x.edu" /
            // "ann@y.org" are usually two different Anns. Names plus very
            // strong association evidence must corroborate.
            best = best.max(if s >= 0.8 { 0.70 } else { 0.7 * s });
        }
    }

    // Name evidence.
    let mut name_best: f64 = 0.0;
    let mut any_compatible = false;
    let mut contradiction = false;
    for i in 0..names.0 {
        for j in 0..names.1 {
            let p = k.name_pair(i, j);
            name_best = name_best.max(p.score);
            any_compatible |= p.compatible;
            contradiction |= p.contradiction;
        }
    }
    best = best.max(name_best);

    // Cross evidence: an address derived from the other side's name. On
    // its own it is suggestive (0.74); combined with an agreeing name it
    // corroborates an otherwise ambiguous initial-form match.
    if !any_compatible || name_best < 0.92 {
        let cross = (0..emails.0).any(|e| (0..names.1).any(|n| k.email_matches_name(true, e, n)))
            || (0..emails.1).any(|e| (0..names.0).any(|n| k.email_matches_name(false, e, n)));
        if cross {
            best = best.max(0.74);
        }
    }

    // Agreeing name + e-mail channels reinforce each other.
    if name_best >= 0.78 && emails.0 > 0 && emails.1 > 0 && email_best >= 0.8 {
        best = (best + 0.08).min(1.0);
    }
    if contradiction {
        // The veto is soft enough to be overridden only by a shared
        // address (returned above), never by association evidence.
        best = best.min(0.6);
    }
    best.clamp(0.0, 1.0)
}

/// [`PersonKernels`] computed straight from two pools.
struct PoolKernels<'p, 'a> {
    a: &'p Pool<'a>,
    b: &'p Pool<'a>,
    parsed_a: ParsedView<'p>,
    parsed_b: ParsedView<'p>,
}

impl PersonKernels for PoolKernels<'_, '_> {
    fn name_pair(&mut self, i: usize, j: usize) -> NamePair {
        name_pair(
            self.a.names[i],
            self.parsed_a.get(i),
            self.b.names[j],
            self.parsed_b.get(j),
        )
    }

    fn email_similarity(&mut self, i: usize, j: usize) -> f64 {
        email_similarity(self.a.emails[i], self.b.emails[j])
    }

    fn email_matches_name(&mut self, a_email: bool, e: usize, n: usize) -> bool {
        if a_email {
            email_matches_parsed_name(self.a.emails[e], self.parsed_b.get(n))
        } else {
            email_matches_parsed_name(self.b.emails[e], self.parsed_a.get(n))
        }
    }
}

/// Score two Publication pools: best title similarity, adjusted by year
/// agreement (equal years nudge up, conflicting years push firmly down —
/// two different papers often share vocabulary but rarely a year *and* a
/// near-identical title).
pub fn publication_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let mut t: f64 = 0.0;
    for ta in &a.titles {
        for tb in &b.titles {
            t = t.max(title_similarity(ta, tb));
        }
    }
    if t == 0.0 {
        return 0.0;
    }
    match (a.years.first(), b.years.first()) {
        (Some(ya), Some(yb)) if ya == yb => (t + 0.04).min(1.0),
        (Some(ya), Some(yb)) if ya != yb => (t - 0.25).max(0.0),
        _ => t,
    }
}

/// Score two Venue pools: the venue comparator over every name/abbreviation
/// pairing.
pub fn venue_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let forms_a: Vec<&str> = a.names.iter().chain(a.abbrevs.iter()).copied().collect();
    let forms_b: Vec<&str> = b.names.iter().chain(b.abbrevs.iter()).copied().collect();
    let mut best: f64 = 0.0;
    for fa in &forms_a {
        for fb in &forms_b {
            best = best.max(venue_similarity(fa, fb));
        }
    }
    best
}

/// Score two Organization pools: token-wise Monge–Elkan over names.
pub fn organization_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let mut best: f64 = 0.0;
    for na in &a.names {
        let ta: Vec<String> = na.split_whitespace().map(str::to_lowercase).collect();
        for nb in &b.names {
            let tb: Vec<String> = nb.split_whitespace().map(str::to_lowercase).collect();
            best = best.max(monge_elkan(&ta, &tb, normalized_damerau));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool<'a>(names: &[&'a str], emails: &[&'a str]) -> Pool<'a> {
        Pool {
            names: names.to_vec(),
            emails: emails.to_vec(),
            ..Default::default()
        }
    }

    #[test]
    fn shared_email_is_conclusive() {
        let a = pool(&["M. Carey"], &["mcarey@ibm.com"]);
        let b = pool(&["Michael Carey"], &["mcarey@ibm.com"]);
        assert_eq!(person_score(&a, &b), 1.0);
    }

    #[test]
    fn initials_only_stays_below_default_threshold() {
        let a = pool(&["M. Carey"], &[]);
        let b = pool(&["Michael Carey"], &[]);
        let s = person_score(&a, &b);
        assert!((0.7..0.82).contains(&s), "ambiguous by design: {s}");
        // And the genuinely ambiguous competitor scores the same.
        let c = pool(&["Maria Carey"], &[]);
        let s2 = person_score(&a, &c);
        assert!((s - s2).abs() < 1e-9);
    }

    #[test]
    fn exact_and_nickname_names_merge_on_attrs() {
        let a = pool(&["Michael J. Carey"], &[]);
        let b = pool(&["Michael Carey"], &[]);
        assert!(person_score(&a, &b) >= 0.85);
        let c = pool(&["Mike Carey"], &[]);
        let s = person_score(&b, &c);
        assert!(s >= 0.85, "nickname: {s}");
    }

    #[test]
    fn incompatible_people_score_low() {
        let a = pool(&["Michael Carey"], &["mcarey@ibm.com"]);
        let b = pool(&["Alon Halevy"], &["alon@cs.edu"]);
        assert!(person_score(&a, &b) <= 0.4);
    }

    #[test]
    fn email_derived_from_name() {
        let a = pool(&[], &["mcarey@ibm.com"]);
        let b = pool(&["Michael Carey"], &[]);
        let s = person_score(&a, &b);
        assert!((0.7..0.82).contains(&s), "suggestive, not conclusive: {s}");
    }

    #[test]
    fn enrichment_makes_the_paper_example_work() {
        // Separately: "M. Carey"+email vs "Michael Carey" is ambiguous…
        let a = pool(&["M. Carey"], &["mcarey@ibm.com"]);
        let b = pool(&["Michael Carey"], &[]);
        let before = person_score(&a, &b);
        assert!(before < 0.82);
        // …but once b's cluster pools the address (from a third reference),
        // the pair is conclusive.
        let b_enriched = pool(&["Michael Carey"], &["mcarey@ibm.com"]);
        assert_eq!(person_score(&a, &b_enriched), 1.0);
    }

    #[test]
    fn publication_years_matter() {
        let a = Pool {
            titles: vec!["Adaptive scalable queries integration"],
            years: vec![2004].into(),
            ..Default::default()
        };
        let same = Pool {
            titles: vec!["Adaptive scalable queries integration"],
            years: vec![2004].into(),
            ..Default::default()
        };
        let other_year = Pool {
            titles: vec!["Adaptive scalable queries integration"],
            years: vec![1999].into(),
            ..Default::default()
        };
        assert!(publication_score(&a, &same) > 0.95);
        assert!(publication_score(&a, &other_year) < publication_score(&a, &same) - 0.2);
        let empty = Pool::default();
        assert_eq!(publication_score(&a, &empty), 0.0);
    }

    #[test]
    fn venue_forms_cross_match() {
        let a = Pool {
            names: vec!["International Conference on Management of Data"],
            ..Default::default()
        };
        let b = Pool {
            abbrevs: vec!["ICMD"],
            ..Default::default()
        };
        assert!(venue_score(&a, &b) >= 0.9, "abbreviation must match");
    }

    #[test]
    fn organization_typos_tolerated() {
        let a = Pool {
            names: vec!["Evergreen Labs"],
            ..Default::default()
        };
        let b = Pool {
            names: vec!["Evergren Labs"],
            ..Default::default()
        };
        assert!(organization_score(&a, &b) > 0.9);
        let c = Pool {
            names: vec!["Cascade Institute"],
            ..Default::default()
        };
        assert!(organization_score(&a, &c) < 0.6);
    }
}
