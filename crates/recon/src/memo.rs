//! The person-kernel memo: pooled person scoring with every comparator run
//! at most once per distinct value pair.
//!
//! Under reference enrichment the worklist rescores a cluster pair each time
//! either cluster grows, and the pools of successive evaluations share
//! almost all of their values. [`PersonMemo`] interns every reference's
//! names (with their parses) and e-mails into dense ids and lazily caches
//! the three pair kernels person scoring folds over: the name-pair outcome,
//! `email_similarity` and `email_matches_parsed_name`. The scoring rules
//! themselves stay in [`person_fold`], so a memoized score is the score
//! [`crate::score::person_score`] gives the same pools, bit for bit.
//!
//! The memo lives for one reconciliation run. Values never change during a
//! run, so nothing is ever invalidated.

use crate::engine::{drop_repeats, POOL_CAP};
use crate::refs::RefTable;
use crate::score::{name_pair, person_fold, NamePair, PersonKernels};
use semex_similarity::email::{email_matches_parsed_name, email_similarity};
use semex_similarity::name::PersonName;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A run-scoped memo of the person pair kernels over interned values.
pub(crate) struct PersonMemo<'t> {
    /// Distinct names with their parses, by name id.
    names: Vec<(&'t str, Cow<'t, PersonName>)>,
    /// Distinct e-mails, by e-mail id.
    emails: Vec<&'t str>,
    /// Per reference: name ids, parallel to the entry's names.
    ref_names: Vec<Vec<u32>>,
    /// Per reference: e-mail ids, parallel to the entry's e-mails.
    ref_emails: Vec<Vec<u32>>,
    /// `(a-side name, b-side name)` → outcome.
    name_pairs: PairMap<NamePair>,
    /// `(a-side e-mail, b-side e-mail)` → similarity.
    email_pairs: PairMap<f64>,
    /// `(e-mail, name)` → whether the address derives from the name.
    derived: PairMap<bool>,
}

impl<'t> PersonMemo<'t> {
    /// Intern the names and e-mails of every reference in `table`.
    pub(crate) fn new(table: &'t RefTable) -> PersonMemo<'t> {
        let mut memo = PersonMemo {
            names: Vec::new(),
            emails: Vec::new(),
            ref_names: Vec::with_capacity(table.len()),
            ref_emails: Vec::with_capacity(table.len()),
            name_pairs: PairMap::default(),
            email_pairs: PairMap::default(),
            derived: PairMap::default(),
        };
        let mut name_ids: HashMap<&str, u32> = HashMap::new();
        let mut email_ids: HashMap<&str, u32> = HashMap::new();
        for e in &table.entries {
            let ids = e
                .names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    *name_ids.entry(n.as_str()).or_insert_with(|| {
                        // A name parses the same wherever it occurs; entries
                        // without a parse cache (non-person kinds) parse here.
                        let parsed = match e.parsed_names.get(i) {
                            Some(p) => Cow::Borrowed(p),
                            None => Cow::Owned(PersonName::parse(n)),
                        };
                        memo.names.push((n.as_str(), parsed));
                        memo.names.len() as u32 - 1
                    })
                })
                .collect();
            memo.ref_names.push(ids);
            let ids = e
                .emails
                .iter()
                .map(|m| {
                    *email_ids.entry(m.as_str()).or_insert_with(|| {
                        memo.emails.push(m.as_str());
                        memo.emails.len() as u32 - 1
                    })
                })
                .collect();
            memo.ref_emails.push(ids);
        }
        memo
    }

    /// Person score of two clusters' pools, given their member lists
    /// (reference indices in merge order). Equal to
    /// [`crate::score::person_score`] over the clusters' pools.
    pub(crate) fn pooled_score(&mut self, ma: &[u32], mb: &[u32]) -> f64 {
        let (names_a, emails_a) = self.pooled_ids(ma);
        let (names_b, emails_b) = self.pooled_ids(mb);
        let mut kernels = MemoKernels {
            memo: self,
            names: (&names_a, &names_b),
            emails: (&emails_a, &emails_b),
        };
        person_fold(
            &mut kernels,
            (names_a.len(), names_b.len()),
            (emails_a.len(), emails_b.len()),
        )
    }

    /// A cluster's pooled name and e-mail ids, under the same per-field cap
    /// and repeat-dropping as the engine's pools.
    fn pooled_ids(&self, members: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let pool = |ids: &[Vec<u32>]| {
            let mut pool: Vec<u32> = members
                .iter()
                .flat_map(|&m| ids[m as usize].iter().copied())
                .take(POOL_CAP)
                .collect();
            drop_repeats(&mut pool);
            pool
        };
        (pool(&self.ref_names), pool(&self.ref_emails))
    }
}

/// [`PersonKernels`] over two pools of interned ids, answered from the memo.
struct MemoKernels<'m, 't> {
    memo: &'m mut PersonMemo<'t>,
    names: (&'m [u32], &'m [u32]),
    emails: (&'m [u32], &'m [u32]),
}

impl PersonKernels for MemoKernels<'_, '_> {
    fn name_pair(&mut self, i: usize, j: usize) -> NamePair {
        let (x, y) = (self.names.0[i], self.names.1[j]);
        let names = &self.memo.names;
        *self.memo.name_pairs.entry(key(x, y)).or_insert_with(|| {
            let ((na, pa), (nb, pb)) = (&names[x as usize], &names[y as usize]);
            name_pair(na, pa, nb, pb)
        })
    }

    fn email_similarity(&mut self, i: usize, j: usize) -> f64 {
        let (x, y) = (self.emails.0[i], self.emails.1[j]);
        let emails = &self.memo.emails;
        *self
            .memo
            .email_pairs
            .entry(key(x, y))
            .or_insert_with(|| email_similarity(emails[x as usize], emails[y as usize]))
    }

    fn email_matches_name(&mut self, a_email: bool, e: usize, n: usize) -> bool {
        let (e, n) = if a_email {
            (self.emails.0[e], self.names.1[n])
        } else {
            (self.emails.1[e], self.names.0[n])
        };
        let (emails, names) = (&self.memo.emails, &self.memo.names);
        *self
            .memo
            .derived
            .entry(key(e, n))
            .or_insert_with(|| email_matches_parsed_name(emails[e as usize], &names[n as usize].1))
    }
}

/// Memo key of an *ordered* id pair: the comparators are not guaranteed to
/// be bit-symmetric, so `(x, y)` and `(y, x)` are cached apart.
fn key(x: u32, y: u32) -> u64 {
    (u64::from(x) << 32) | u64::from(y)
}

type PairMap<V> = HashMap<u64, V, BuildHasherDefault<PairHasher>>;

/// Hasher for [`key`]s: one multiply-xorshift round (the keys are dense
/// ids, so no attacker chooses them).
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, k: u64) {
        let h = (self.0 ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::{RefEntry, RefKind};
    use crate::score::{person_score, Pool};
    use proptest::prelude::*;

    /// Few values, many near-matches: pools repeat values, and names and
    /// addresses agree, nearly agree or contradict across references.
    const NAMES: &[&str] = &[
        "Michael Carey",
        "M. Carey",
        "Carey, Michael",
        "Mike Carey",
        "Maria Carey",
        "Michael J. Carey",
        "Alon Halevy",
        "A. Halevy",
        "Xin Dong",
        "Dong, Xin",
        "Carey",
    ];
    const EMAILS: &[&str] = &[
        "mcarey@ibm.com",
        "mcarey@cs.edu",
        "michael.carey@ibm.com",
        "alon@cs.edu",
        "ahalevy@cs.edu",
        "xdong@x.edu",
        "carey@ibm.com",
        "not-an-address",
    ];

    type RefSpec = (Vec<usize>, Vec<usize>);

    fn table(refs: &[RefSpec]) -> RefTable {
        let entries = refs
            .iter()
            .map(|(names, emails)| {
                let names: Vec<String> = names.iter().map(|&i| NAMES[i].to_owned()).collect();
                RefEntry {
                    kind: RefKind::Person,
                    parsed_names: names.iter().map(|n| PersonName::parse(n)).collect(),
                    names,
                    emails: emails.iter().map(|&i| EMAILS[i].to_owned()).collect(),
                    ..Default::default()
                }
            })
            .collect();
        RefTable {
            entries,
            index_of: HashMap::new(),
        }
    }

    /// The plain capped pool: the first [`POOL_CAP`] names (with parses)
    /// and e-mails of the members, repeats and all.
    fn plain_pool<'a>(t: &'a RefTable, members: &[u32]) -> Pool<'a> {
        let entries = || members.iter().map(|&m| &t.entries[m as usize]);
        let named: Vec<_> = entries()
            .flat_map(|e| e.names.iter().zip(&e.parsed_names))
            .take(POOL_CAP)
            .collect();
        Pool {
            names: named.iter().map(|(n, _)| n.as_str()).collect(),
            parsed_names: named.iter().map(|&(_, p)| p).collect(),
            emails: entries()
                .flat_map(|e| e.emails.iter().map(String::as_str))
                .take(POOL_CAP)
                .collect(),
            ..Default::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn memoized_person_scores_equal_person_score(
            refs in prop::collection::vec(
                (
                    prop::collection::vec(0usize..11, 0..4),
                    prop::collection::vec(0usize..8, 0..4),
                ),
                12,
            ),
            ma in prop::collection::vec(0u32..12, 0..9),
            mb in prop::collection::vec(0u32..12, 0..9),
        ) {
            let t = table(&refs);
            let mut memo = PersonMemo::new(&t);
            let none: Vec<u32> = Vec::new();
            // Both orders, each side against itself and against an empty
            // side, twice over: the second round answers from the memo.
            for _ in 0..2 {
                for (x, y) in [(&ma, &mb), (&mb, &ma), (&ma, &ma), (&ma, &none), (&none, &mb)] {
                    let want = person_score(&plain_pool(&t, x), &plain_pool(&t, y));
                    let got = memo.pooled_score(x, y);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} vs {:?}", x, y);
                }
            }
        }
    }

    #[test]
    fn cap_applies_before_repeats_are_dropped() {
        // Thirteen raw names of which the first twelve hold only three
        // distinct ones: the thirteenth ("Xin Dong") is past the cap.
        let mut refs: Vec<RefSpec> = vec![(vec![0, 1, 2], vec![0]); 4];
        refs.push((vec![8], vec![5]));
        let t = table(&refs);
        let memo = PersonMemo::new(&t);
        let (names, emails) = memo.pooled_ids(&[0, 1, 2, 3, 4]);
        assert_eq!(names, vec![0, 1, 2]);
        assert_eq!(emails, vec![0, 1], "five raw e-mails, all under the cap");
        let pooled: Vec<&str> = names.iter().map(|&n| memo.names[n as usize].0).collect();
        assert_eq!(pooled, ["Michael Carey", "M. Carey", "Carey, Michael"]);
    }
}
