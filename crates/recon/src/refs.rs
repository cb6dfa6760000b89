//! The reference table: a cached, reconciliation-oriented view of a store.

use semex_model::names::{attr, class};
use semex_model::{AttrId, ClassId};
use semex_store::{ObjectId, Store};
use std::collections::HashMap;

/// The built-in reconcilable kinds, used to dispatch comparators and
/// blocking keys. User-defined reconcilable classes fall back to
/// [`RefKind::Other`], which is compared by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefKind {
    /// A person reference.
    Person,
    /// A publication reference.
    Publication,
    /// A venue reference.
    Venue,
    /// An organization reference.
    Organization,
    /// Any other user-defined reconcilable class.
    #[default]
    Other,
}

/// Cached attribute values of one reference (one pre-reconciliation store
/// object of a reconcilable class).
#[derive(Debug, Clone, Default)]
pub struct RefEntry {
    /// The store object this entry mirrors.
    pub obj: ObjectId,
    /// The reference's class.
    pub class: ClassId,
    /// Comparator dispatch kind derived from the class name.
    pub kind: RefKind,
    /// `name` values, as extracted.
    pub names: Vec<String>,
    /// Person-name parses of `names` (parallel), computed once at table
    /// build so hot scoring loops never re-parse.
    pub parsed_names: Vec<semex_similarity::name::PersonName>,
    /// `email` values, lowercased.
    pub emails: Vec<String>,
    /// `title` values.
    pub titles: Vec<String>,
    /// `abbreviation` values.
    pub abbrevs: Vec<String>,
    /// `year` values.
    pub years: Vec<i64>,
    /// Evidence neighbours, grouped by channel (see [`RefTable`]): each
    /// channel holds the indices of reconcilable references reachable over
    /// one association, or over one association *through* a structural
    /// object (sender-of-same-thread style evidence).
    pub neighbors: Vec<(u32, Vec<u32>)>,
}

impl RefEntry {
    /// Neighbour indices on a given channel.
    pub fn channel(&self, ch: u32) -> &[u32] {
        self.neighbors
            .iter()
            .find(|(c, _)| *c == ch)
            .map(|(_, ns)| ns.as_slice())
            .unwrap_or(&[])
    }

    /// All channels this reference has neighbours on.
    pub fn channels(&self) -> impl Iterator<Item = u32> + '_ {
        self.neighbors.iter().map(|(c, _)| *c)
    }

    /// Every neighbour index, across channels.
    pub fn all_neighbors(&self) -> impl Iterator<Item = u32> + '_ {
        self.neighbors.iter().flat_map(|(_, ns)| ns.iter().copied())
    }
}

/// All reconcilable references of a store, with dense indices, cached
/// attributes and the evidence-neighbour graph.
#[derive(Debug, Clone)]
pub struct RefTable {
    /// Entries in index order.
    pub entries: Vec<RefEntry>,
    /// Map store object → entry index.
    pub index_of: HashMap<ObjectId, u32>,
}

/// Channel id for a direct association: `assoc * 2 + dir` (dir 0 =
/// forward/I-am-subject, 1 = inverse/I-am-object).
pub fn direct_channel(assoc: u16, inverse: bool) -> u32 {
    (assoc as u32) * 2 + u32::from(inverse)
}

/// Channel id for a two-hop path through a structural object:
/// high bit set, then the two association ids.
pub fn hop_channel(first: u16, second: u16) -> u32 {
    (1 << 24) | ((first as u32) << 12) | (second as u32)
}

impl RefKind {
    /// Comparator dispatch kind of a class, by its name.
    fn of_class(name: &str) -> RefKind {
        match name {
            class::PERSON => RefKind::Person,
            class::PUBLICATION => RefKind::Publication,
            class::VENUE => RefKind::Venue,
            class::ORGANIZATION => RefKind::Organization,
            _ => RefKind::Other,
        }
    }
}

/// The reconcilable classes of a store's model in model order, with their
/// comparator kinds. A reference's position in the global reference order
/// is `(class rank, object id)`, the rank being its class's position here.
pub(crate) fn reconcilable_classes(store: &Store) -> Vec<(ClassId, RefKind)> {
    store
        .model()
        .classes()
        .filter(|(_, def)| def.reconcilable)
        .map(|(c, def)| (c, RefKind::of_class(&def.name)))
        .collect()
}

/// The attributes a reference entry caches, resolved once per model.
pub(crate) struct CachedAttrs {
    name: Option<AttrId>,
    email: Option<AttrId>,
    title: Option<AttrId>,
    abbrev: Option<AttrId>,
    year: Option<AttrId>,
}

impl CachedAttrs {
    pub(crate) fn of(store: &Store) -> CachedAttrs {
        let model = store.model();
        CachedAttrs {
            name: model.attr(attr::NAME),
            email: model.attr(attr::EMAIL),
            title: model.attr(attr::TITLE),
            abbrev: model.attr(attr::ABBREVIATION),
            year: model.attr(attr::YEAR),
        }
    }
}

impl RefEntry {
    /// The entry of live object `obj`, with its attribute values cached and
    /// no neighbours yet.
    pub(crate) fn of_object(
        store: &Store,
        attrs: &CachedAttrs,
        obj: ObjectId,
        class: ClassId,
        kind: RefKind,
    ) -> RefEntry {
        let o = store.object(obj);
        let strs = |attr: Option<AttrId>| -> Vec<String> {
            attr.map(|a| o.strs(a).map(str::to_owned).collect())
                .unwrap_or_default()
        };
        let names = strs(attrs.name);
        let parsed_names = if kind == RefKind::Person {
            names
                .iter()
                .map(|n| semex_similarity::name::PersonName::parse(n))
                .collect()
        } else {
            Vec::new()
        };
        RefEntry {
            obj,
            class,
            kind,
            names,
            parsed_names,
            emails: strs(attrs.email)
                .into_iter()
                .map(|s| s.to_lowercase())
                .collect(),
            titles: strs(attrs.title),
            abbrevs: strs(attrs.abbrev),
            years: attrs
                .year
                .map(|a| o.values(a).filter_map(|v| v.as_int()).collect())
                .unwrap_or_default(),
            neighbors: Vec::new(),
        }
    }
}

impl RefTable {
    /// Build the table from a store: one entry per live object of each
    /// reconcilable class, with neighbours capped at `max_fanout` per
    /// channel.
    pub fn build(store: &Store, max_fanout: usize) -> RefTable {
        let attrs = CachedAttrs::of(store);
        let mut entries: Vec<RefEntry> = Vec::new();
        let mut index_of: HashMap<ObjectId, u32> = HashMap::new();
        for (class_id, kind) in reconcilable_classes(store) {
            for obj in store.objects_of_class(class_id) {
                index_of.insert(obj, entries.len() as u32);
                entries.push(RefEntry::of_object(store, &attrs, obj, class_id, kind));
            }
        }
        let index = |o: ObjectId| index_of.get(&o).copied();
        for (i, e) in entries.iter_mut().enumerate() {
            e.neighbors = evidence_channels(store, e.obj, e.class, i as u32, max_fanout, &index);
        }
        RefTable { entries, index_of }
    }

    /// A *local* table over part of the store: the `attributed`
    /// references with their attributes, the evidence neighbours of the
    /// `with_neighbors` references as bare entries, and neighbour lists for
    /// `with_neighbors` only. Every listed object must be a live reference,
    /// and `with_neighbors` a subset of `attributed`.
    ///
    /// Entries are indexed in the global reference order
    /// `(class rank, object id)` that [`RefTable::build`] uses, and each
    /// neighbour list is the one the full table holds, so any computation
    /// that only compares indices — blocking order, worklist order,
    /// union-find ties, neighbour-list truncation — runs on the local table
    /// exactly as it would on the full one.
    pub(crate) fn local(
        store: &Store,
        attributed: &[ObjectId],
        with_neighbors: &[ObjectId],
        max_fanout: usize,
    ) -> RefTable {
        let classes = reconcilable_classes(store);
        // A live reference's position in the global order.
        let key = |o: ObjectId| -> Option<(usize, ObjectId)> {
            let slot = store.object_raw(o).filter(|slot| !slot.is_alias())?;
            let rank = classes.iter().position(|&(c, _)| c == slot.class)?;
            Some((rank, o))
        };
        let channels: Vec<Channels<(usize, ObjectId)>> = with_neighbors
            .iter()
            .map(|&o| {
                let me = key(o).expect("local table entries are live references");
                evidence_channels(store, o, store.class_of(o), me, max_fanout, &key)
            })
            .collect();

        let mut order: Vec<(usize, ObjectId)> = attributed
            .iter()
            .filter_map(|&o| key(o))
            .chain(
                channels
                    .iter()
                    .flatten()
                    .flat_map(|(_, ns)| ns.iter().copied()),
            )
            .collect();
        order.sort_unstable();
        order.dedup();
        let index_of: HashMap<ObjectId, u32> = order
            .iter()
            .enumerate()
            .map(|(i, &(_, o))| (o, i as u32))
            .collect();

        let attrs = CachedAttrs::of(store);
        let mut entries: Vec<RefEntry> = order
            .iter()
            .map(|&(r, obj)| RefEntry {
                obj,
                class: classes[r].0,
                kind: classes[r].1,
                ..Default::default()
            })
            .collect();
        for &o in attributed {
            let e = &mut entries[index_of[&o] as usize];
            *e = RefEntry::of_object(store, &attrs, o, e.class, e.kind);
        }
        for (&o, chans) in with_neighbors.iter().zip(channels) {
            entries[index_of[&o] as usize].neighbors = chans
                .into_iter()
                .map(|(ch, ns)| (ch, ns.iter().map(|(_, n)| index_of[n]).collect()))
                .collect();
        }
        RefTable { entries, index_of }
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no references.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Indices of references of a class.
    pub fn of_class(&self, class: ClassId) -> impl Iterator<Item = u32> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.class == class)
            .map(|(i, _)| i as u32)
    }
}

/// Evidence channels: `(channel id, neighbour keys)`, sorted by id.
type Channels<K> = Vec<(u32, Vec<K>)>;

/// The evidence channels of reference `obj` (of class `class`, keyed `me`):
/// per channel, the neighbouring references, each mapped through `key`
/// (`None` for objects that are not live references), capped at
/// `max_fanout` in visiting order, then sorted by key, deduplicated and
/// capped again. Channels are sorted by id.
fn evidence_channels<K: Copy + Ord>(
    store: &Store,
    obj: ObjectId,
    class: ClassId,
    me: K,
    max_fanout: usize,
    key: &impl Fn(ObjectId) -> Option<K>,
) -> Channels<K> {
    let model = store.model();
    let reconcilable = |c: ClassId| -> bool { model.class_def(c).reconcilable };
    let mut channels: HashMap<u32, Vec<K>> = HashMap::new();
    for (assoc, def) in model.assocs() {
        if !def.recon_evidence {
            continue;
        }
        // I am the subject: look at my objects.
        if def.domain == class {
            for &n in store.neighbors(obj, assoc) {
                push_evidence(
                    store,
                    key,
                    &mut channels,
                    direct_channel(assoc.0, false),
                    n,
                    assoc.0,
                    me,
                    reconcilable(def.range),
                    max_fanout,
                );
            }
        }
        // I am the object: look at my subjects.
        if def.range == class {
            for &n in store.inverse_neighbors(obj, assoc) {
                push_evidence(
                    store,
                    key,
                    &mut channels,
                    direct_channel(assoc.0, true),
                    n,
                    assoc.0,
                    me,
                    reconcilable(def.domain),
                    max_fanout,
                );
            }
        }
    }
    let mut list: Channels<K> = channels.into_iter().collect();
    list.sort_by_key(|(c, _)| *c);
    for (_, ns) in &mut list {
        ns.sort_unstable();
        ns.dedup();
        ns.truncate(max_fanout);
    }
    list
}

/// Record evidence from a neighbouring object `n`: directly when `n` is
/// itself a reconcilable reference, and — in both cases — through `n`
/// (one extra hop) to the reconcilable references attached to it. The hop
/// through a reconcilable neighbour yields channels like
/// `(AuthoredBy, AuthoredBy)`: a person's *co-authors*, the evidence SEMEX's
/// derived associations expose; the hop through a structural object yields
/// correspondence-style evidence (sender → message → recipients).
#[allow(clippy::too_many_arguments)]
fn push_evidence<K: Copy + Eq>(
    store: &Store,
    key: &impl Fn(ObjectId) -> Option<K>,
    channels: &mut HashMap<u32, Vec<K>>,
    direct_ch: u32,
    n: ObjectId,
    via_assoc: u16,
    me: K,
    neighbor_reconcilable: bool,
    max_fanout: usize,
) {
    if neighbor_reconcilable {
        if let Some(ni) = key(n) {
            let v = channels.entry(direct_ch).or_default();
            if v.len() < max_fanout {
                v.push(ni);
            }
        }
    }
    // Hop: every reconcilable reference attached to `n` over any evidence
    // association becomes a two-hop neighbour.
    let model = store.model();
    let n_class = store.class_of(n);
    for (assoc2, def2) in model.assocs() {
        if !def2.recon_evidence {
            continue;
        }
        if def2.domain == n_class && model.class_def(def2.range).reconcilable {
            for &m in store.neighbors(n, assoc2) {
                if let Some(mi) = key(m) {
                    if mi != me {
                        let v = channels
                            .entry(hop_channel(via_assoc, assoc2.0))
                            .or_default();
                        if v.len() < max_fanout {
                            v.push(mi);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{bibtex::extract_bibtex, email::extract_mbox, ExtractContext};
    use semex_model::names::class;
    use semex_store::{SourceInfo, SourceKind};

    fn table() -> (Store, RefTable) {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_bibtex(
            "@inproceedings{a, title={Semantic Desktop Search}, author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}\n\
             @inproceedings{b, title={Semantic Desktop Search Systems}, author={X. Dong and A. Halevy}, booktitle={SIGMOD Conference}, year=2005}",
            &mut ctx,
        )
        .unwrap();
        extract_mbox(
            "From: Xin Dong <luna@x.edu>\nTo: Alon Halevy <alon@x.edu>\nSubject: hi\n\nbody",
            &mut ctx,
        )
        .unwrap();
        let t = RefTable::build(&st, 64);
        (st, t)
    }

    #[test]
    fn only_reconcilable_classes_included() {
        let (st, t) = table();
        let model = st.model();
        let c_msg = model.class(class::MESSAGE).unwrap();
        assert!(t.entries.iter().all(|e| e.class != c_msg));
        // 2 pubs + 4 bib authors + 2 email people + 2 venues = 10.
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn attributes_cached() {
        let (st, t) = table();
        let model = st.model();
        let c_pub = model.class(class::PUBLICATION).unwrap();
        let pubs: Vec<u32> = t.of_class(c_pub).collect();
        assert_eq!(pubs.len(), 2);
        let e = &t.entries[pubs[0] as usize];
        assert!(e.titles[0].starts_with("Semantic Desktop Search"));
        assert_eq!(e.years, vec![2005]);
    }

    #[test]
    fn direct_neighbors_exist() {
        let (st, t) = table();
        let model = st.model();
        let c_pub = model.class(class::PUBLICATION).unwrap();
        let c_person = model.class(class::PERSON).unwrap();
        for pi in t.of_class(c_pub) {
            let e = &t.entries[pi as usize];
            // Publications see their authors and venue.
            assert!(e.all_neighbors().count() >= 3, "authors + venue");
        }
        // Bib persons see their publications (inverse AuthoredBy).
        let persons_with_pub_evidence = t
            .of_class(c_person)
            .filter(|&i| t.entries[i as usize].all_neighbors().count() > 0)
            .count();
        assert!(persons_with_pub_evidence >= 4);
    }

    #[test]
    fn structural_hop_links_correspondents() {
        let (st, t) = table();
        let model = st.model();
        let c_person = model.class(class::PERSON).unwrap();
        // The email sender should have a two-hop channel to the recipient
        // (Sender⁻¹ through the Message to Recipient).
        let email_people: Vec<u32> = t
            .of_class(c_person)
            .filter(|&i| !t.entries[i as usize].emails.is_empty())
            .collect();
        assert_eq!(email_people.len(), 2);
        let hop_neighbors: usize = email_people
            .iter()
            .map(|&i| {
                t.entries[i as usize]
                    .channels()
                    .filter(|c| c & (1 << 24) != 0)
                    .count()
            })
            .sum();
        assert!(hop_neighbors >= 2, "both correspondents get hop evidence");
    }

    /// Entries as comparable rows: object, class, attributes and
    /// neighbours by object id.
    fn rows(t: &RefTable) -> Vec<String> {
        t.entries
            .iter()
            .map(|e| {
                let ns: Vec<(u32, Vec<ObjectId>)> = e
                    .neighbors
                    .iter()
                    .map(|(c, ns)| (*c, ns.iter().map(|&n| t.entries[n as usize].obj).collect()))
                    .collect();
                format!(
                    "{:?} {:?} {:?} {:?} {:?} {ns:?}",
                    e.obj, e.class, e.names, e.emails, e.titles
                )
            })
            .collect()
    }

    #[test]
    fn local_table_over_every_reference_is_the_full_table() {
        let (st, t) = table();
        let all: Vec<ObjectId> = t.entries.iter().map(|e| e.obj).collect();
        let local = RefTable::local(&st, &all, &all, 64);
        assert_eq!(rows(&local), rows(&t));
        assert_eq!(local.index_of, t.index_of);
    }

    #[test]
    fn local_table_keeps_global_order_and_full_neighbour_lists() {
        let (st, t) = table();
        let model = st.model();
        let c_person = model.class(class::PERSON).unwrap();
        // Two people, in reverse order: the local table sorts them.
        let people: Vec<ObjectId> = t
            .of_class(c_person)
            .map(|i| t.entries[i as usize].obj)
            .collect();
        let picked = [people[3], people[0]];
        let local = RefTable::local(&st, &picked, &picked, 64);
        let objs: Vec<ObjectId> = local.entries.iter().map(|e| e.obj).collect();
        let mut sorted = objs.clone();
        sorted.sort_by_key(|o| t.index_of[o]);
        assert_eq!(objs, sorted, "local indices follow the global order");
        for o in picked {
            let full = &t.entries[t.index_of[&o] as usize];
            let mine = &local.entries[local.index_of[&o] as usize];
            let by_obj = |t: &RefTable, e: &RefEntry| -> Vec<(u32, Vec<ObjectId>)> {
                e.neighbors
                    .iter()
                    .map(|(c, ns)| (*c, ns.iter().map(|&n| t.entries[n as usize].obj).collect()))
                    .collect()
            };
            assert_eq!(by_obj(&local, mine), by_obj(&t, full));
            assert_eq!(mine.names, full.names);
        }
        // Neighbour-only entries carry no attributes.
        let bare = local
            .entries
            .iter()
            .filter(|e| !picked.contains(&e.obj))
            .collect::<Vec<_>>();
        assert!(!bare.is_empty(), "the people have neighbours");
        assert!(bare
            .iter()
            .all(|e| e.names.is_empty() && e.neighbors.is_empty()));
    }

    #[test]
    fn channel_lookup() {
        let e = RefEntry {
            neighbors: vec![(3, vec![1, 2]), (9, vec![5])],
            ..Default::default()
        };
        assert_eq!(e.channel(3), &[1, 2]);
        assert_eq!(e.channel(9), &[5]);
        assert!(e.channel(4).is_empty());
        assert_eq!(e.all_neighbors().count(), 3);
        assert_ne!(direct_channel(3, false), direct_channel(3, true));
        assert_ne!(hop_channel(1, 2), hop_channel(2, 1));
    }
}
